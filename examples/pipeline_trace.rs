//! Watch the priority mechanism at cycle granularity: the decode-slot
//! pattern of two threads under a (6,4) priority pair, read from the
//! performance-monitoring unit.
//!
//! The PMU's `decode_granted` counters record which context owned each
//! decode cycle; stepping the core one cycle at a time and diffing them
//! makes the Equation-1 slot pattern directly visible (seven T0 decode
//! cycles for every T1 cycle).
//!
//! ```text
//! cargo run --release --example pipeline_trace
//! ```

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::isa::{Priority, ThreadId};
use p5repro::microbench::MicroBenchmark;
use p5repro::pmu::PmuConfig;

fn main() {
    let mut core = SmtCore::new(CoreConfig::power5_like());
    core.load_program(ThreadId::T0, MicroBenchmark::CpuInt.program());
    core.load_program(ThreadId::T1, MicroBenchmark::CpuInt.program());
    core.set_priority(ThreadId::T0, Priority::High); // (6,4): R = 8

    // Warm the pipeline, then watch a short window cycle by cycle.
    core.run_cycles(10_000);
    core.enable_pmu(PmuConfig::counters_only());
    let granted = |c: &SmtCore| c.pmu().expect("PMU enabled").counters().decode_granted;
    let mut pattern = String::new();
    for _ in 0..48 {
        let before = granted(&core);
        core.step();
        let after = granted(&core);
        pattern.push(match (after[0] > before[0], after[1] > before[1]) {
            (true, _) => '0',
            (_, true) => '1',
            _ => '.',
        });
    }
    let totals = granted(&core);

    println!("decode-slot owner per cycle, priorities (6,4) (0 = T0, 1 = T1):\n");
    println!("  {pattern}");
    println!(
        "\ngranted decode cycles in the window: T0 {}, T1 {} — Equation 1 gives the\n\
         higher-priority thread 7 of every 8 decode cycles at a +2 difference.",
        totals[0], totals[1]
    );
}
