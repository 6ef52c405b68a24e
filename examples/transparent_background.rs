//! Transparent background execution (paper Section 5.5 / Figure 6).
//!
//! POWER5 can run a "background" thread at priority 1 so it consumes only
//! resources the foreground thread leaves idle. This example measures how
//! transparent that really is for different foreground/background
//! pairings, using the simulated patched kernel to set the priorities the
//! way the paper's authors did.
//!
//! ```text
//! cargo run --release --example transparent_background
//! ```

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::isa::{Priority, ThreadId};
use p5repro::microbench::MicroBenchmark;
use p5repro::os::{Kernel, KernelMode, SysfsRequest};

fn st_ipc(bench: MicroBenchmark) -> f64 {
    let mut core = SmtCore::new(CoreConfig::power5_like());
    core.load_program(ThreadId::T0, bench.program());
    core.run_cycles(400_000);
    core.reset_stats();
    core.run_cycles(1_000_000);
    core.stats().ipc(ThreadId::T0)
}

fn main() {
    let foregrounds = [
        MicroBenchmark::CpuFp,
        MicroBenchmark::LngChainCpuint,
        MicroBenchmark::CpuInt,
        MicroBenchmark::LdintL1,
    ];
    let background = MicroBenchmark::LdintMem; // the paper's worst case

    println!(
        "background thread: {} at priority 1 (via the patched kernel's /sys interface)\n",
        background.name()
    );
    println!(
        "{:<18} {:>8} {:>10} {:>12} {:>10}",
        "foreground", "ST IPC", "fg IPC", "fg slowdown", "bg IPC"
    );

    for fg in foregrounds {
        let st = st_ipc(fg);

        let mut core = SmtCore::new(CoreConfig::power5_like());
        core.load_program(ThreadId::T0, fg.program());
        core.load_program(ThreadId::T1, background.program());

        // The paper's kernel patch exposes priorities 1-6 to user space
        // through /sys; the stock kernel would reject 6 and reset
        // priorities at every interrupt.
        let mut kernel = Kernel::new(core, KernelMode::Patched);
        SysfsRequest::parse("thread0/priority", "6")
            .and_then(|r| r.apply(&mut kernel))
            .expect("patched kernel allows 6");
        SysfsRequest::parse("thread1/priority", "1")
            .and_then(|r| r.apply(&mut kernel))
            .expect("patched kernel allows 1");
        assert_eq!(kernel.core().priority(ThreadId::T1), Priority::VeryLow);

        kernel.try_run_cycles(400_000).expect("the core never wedges");
        kernel.core_mut().reset_stats();
        kernel.try_run_cycles(1_500_000).expect("the core never wedges");

        let fg_ipc = kernel.core().stats().ipc(ThreadId::T0);
        let bg_ipc = kernel.core().stats().ipc(ThreadId::T1);
        println!(
            "{:<18} {:>8.3} {:>10.3} {:>11.1}% {:>10.3}",
            fg.name(),
            st,
            fg_ipc,
            (st / fg_ipc - 1.0) * 100.0,
            bg_ipc
        );
    }

    println!(
        "\nLow-IPC foregrounds barely notice the background thread — the\n\
         paper's 'transparent execution'. The background still makes real\n\
         progress (its IPC above), which is the point: free cycles\n\
         harvested without disturbing the foreground."
    );
}
