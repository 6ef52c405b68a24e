//! Characterize one workload pairing across the full priority range —
//! the per-pair slice of the paper's Figures 2, 3 and 4.
//!
//! Pass two micro-benchmark names (default: `cpu_int ldint_l2`):
//!
//! ```text
//! cargo run --release --example characterize_pair -- cpu_int lng_chain_cpuint
//! ```

use p5repro::experiments::campaign::{Campaign, CampaignSpec, CellSpec};
use p5repro::experiments::{priority_pair, Experiments};
use p5repro::isa::ThreadId;
use p5repro::microbench::MicroBenchmark;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let primary = args
        .first()
        .map_or(MicroBenchmark::CpuInt, |name| {
            MicroBenchmark::from_name(name).unwrap_or_else(|| {
                eprintln!("unknown benchmark {name}; available:");
                for b in MicroBenchmark::ALL {
                    eprintln!("  {b}");
                }
                std::process::exit(1);
            })
        });
    let secondary = args
        .get(1)
        .map_or(MicroBenchmark::LdintL2, |name| {
            MicroBenchmark::from_name(name).unwrap_or_else(|| {
                eprintln!("unknown benchmark {name}");
                std::process::exit(1);
            })
        });

    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let ctx = Experiments::quick().with_jobs(jobs);
    println!(
        "characterizing ({}, {}) across priority differences -5..=+5\n",
        primary.name(),
        secondary.name()
    );
    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "diff", "pair", "PThread IPC", "SThread IPC", "total", "vs (4,4)"
    );

    // One campaign over the eleven differences; cell `diff + 5` is the
    // (4,4) baseline every row is normalized against.
    let diffs = -5..=5;
    let cells = diffs
        .clone()
        .map(|diff| {
            CellSpec::pair(
                format!("diff {diff:+}"),
                primary.program(),
                secondary.program(),
                priority_pair(diff),
            )
        })
        .collect();
    let result = Campaign::run(&ctx, &CampaignSpec::for_ctx(&ctx, cells));
    let baseline = result.measured(5).total_ipc();

    for (diff, cell) in diffs.zip(&result.cells) {
        let (p, s) = priority_pair(diff);
        let m = &cell.measured;
        let (Some(pt), Some(st)) = (m.ipc(ThreadId::T0), m.ipc(ThreadId::T1)) else {
            let note = m.degradation(&cell.label).expect("a cell without IPC degraded");
            println!("{:>5} {note}", format!("{diff:+}"));
            continue;
        };
        let total = pt + st;
        let rel = baseline.map_or_else(
            || "n/a".to_string(),
            |b| format!("{:+.1}%", (total / b - 1.0) * 100.0),
        );
        println!(
            "{:>5} {:>10} {:>12.3} {:>12.3} {:>10.3} {:>12}",
            format!("{diff:+}"),
            format!("({},{})", p.level(), s.level()),
            pt,
            st,
            total,
            rel
        );
    }

    println!(
        "\nreading guide: positive differences favour {}, negative favour {};\n\
         the paper's rule of thumb is to stay within +/-2 unless one\n\
         thread's performance genuinely does not matter.",
        primary.name(),
        secondary.name()
    );
}
