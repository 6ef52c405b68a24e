//! Re-balancing a producer/consumer software pipeline with priorities —
//! the paper's FFT→LU case study (Section 5.4.1, Table 4).
//!
//! One thread runs an FFT whose output the sibling consumes with an LU
//! decomposition. The FFT takes ~7× the LU's time, so at equal priorities
//! the LU thread idles at the barrier. Sweeping the FFT's priority finds
//! the balance point — and shows the over-rotation cliff beyond it.
//!
//! ```text
//! cargo run --release --example pipeline_balancing
//! ```

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::fame::{FameConfig, FameRunner};
use p5repro::isa::{Priority, ThreadId};
use p5repro::workloads::fftlu;

fn measure(priorities: (Priority, Priority)) -> (f64, f64) {
    let mut core = SmtCore::new(CoreConfig::power5_like());
    core.load_program(ThreadId::T0, fftlu::fft_program());
    core.load_program(ThreadId::T1, fftlu::lu_program());
    core.set_priority(ThreadId::T0, priorities.0);
    core.set_priority(ThreadId::T1, priorities.1);
    let report = FameRunner::new(FameConfig::quick())
        .try_measure(&mut core)
        .expect("the FFT/LU pipeline never wedges");
    (
        report
            .thread(ThreadId::T0)
            .expect("fft active")
            .avg_repetition_cycles,
        report
            .thread(ThreadId::T1)
            .expect("lu active")
            .avg_repetition_cycles,
    )
}

fn main() {
    println!("FFT -> LU pipeline: iteration time = max(stage times)\n");

    let pairs = [
        (Priority::Medium, Priority::Medium),     // (4,4)
        (Priority::MediumHigh, Priority::Medium), // (5,4)
        (Priority::High, Priority::Medium),       // (6,4)
        (Priority::High, Priority::MediumLow),    // (6,3)
    ];

    let mut best: Option<((u8, u8), f64)> = None;
    let mut baseline = 0.0;
    for (pf, pl) in pairs {
        let (fft, lu) = measure((pf, pl));
        let iteration = fftlu::iteration_time(fft, lu);
        if pf == Priority::Medium && pl == Priority::Medium {
            baseline = iteration;
        }
        println!(
            "({},{}): FFT {:>9.0} cyc | LU {:>9.0} cyc | iteration {:>9.0} cyc",
            pf.level(),
            pl.level(),
            fft,
            lu,
            iteration
        );
        if best.is_none() || iteration < best.expect("set").1 {
            best = Some(((pf.level(), pl.level()), iteration));
        }
    }

    let ((bp, bl), best_iter) = best.expect("measured");
    println!(
        "\nbest: ({bp},{bl}) — {:.1}% faster than (4,4)  [paper: (6,4), 9.3%]",
        (1.0 - best_iter / baseline) * 100.0
    );
    println!(
        "note the (6,3) row: too much prioritization inverts the imbalance\n\
         and the LU becomes the bottleneck, exactly as in paper Table 4."
    );
}
