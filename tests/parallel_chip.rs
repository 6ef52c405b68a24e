//! Integration contract of the parallel chip (DESIGN.md §16), exercised
//! through the path the §4.1 isolation experiment (`noise::run`) takes:
//! warm for a fixed horizon, reset statistics, run a fixed measurement
//! horizon with `Chip::run_cycles`, read per-core statistics. The
//! threaded chip at quantum 1 is bit-identical to the serial scheduler
//! for every presented workload under both warmup engines, a relaxed
//! quantum really reorders the cores yet stays within tolerance, and the
//! quantum barrier's abort/poison state never outlives one run.

use p5repro::core::{CancelToken, Chip, ChipParallelism, CoreConfig, CoreId, WarmupMode};
use p5repro::experiments::noise::os_noise_program;
use p5repro::isa::ThreadId;
use p5repro::microbench::MicroBenchmark;
use std::time::Duration;

/// Runs `bench` on core 1 beside the OS-noise program on both contexts
/// of core 0 (the noisy §4.1 layout) on the tiny config: `warm` cycles
/// of warmup on the given engine, a statistics reset, then `measure`
/// detailed cycles.
fn run(
    bench: MicroBenchmark,
    warmup: WarmupMode,
    chip_mode: ChipParallelism,
    warm: u64,
    measure: u64,
) -> Chip {
    let mut cfg = CoreConfig::tiny_for_tests();
    cfg.plan.chip = chip_mode;
    let mut chip = Chip::new(cfg);
    for tid in ThreadId::ALL {
        chip.core_mut(CoreId::C0)
            .load_program(tid, os_noise_program());
    }
    chip.core_mut(CoreId::C1)
        .load_program(ThreadId::T0, bench.program());
    match warmup {
        WarmupMode::Detailed => chip.run_cycles(warm),
        WarmupMode::Functional => {
            for id in CoreId::ALL {
                chip.core_mut(id).functional_warmup(warm);
            }
        }
    }
    chip.reset_stats();
    chip.run_cycles(measure);
    chip
}

/// Every per-core counter the measurement reads, plus the memory
/// statistics, as one comparable string.
fn observable(chip: &Chip) -> String {
    CoreId::ALL
        .iter()
        .map(|&id| {
            let core = chip.core(id);
            format!("{id:?}: {:?} {:?}\n", core.stats(), core.mem().stats())
        })
        .collect()
}

/// The determinism contract: at quantum 1 the two OS threads interleave
/// cores exactly as the serial scheduler does (strict C0→C1 alternation
/// at every cycle), so every counter of both cores — committed
/// instructions, repetition boundaries, cache statistics — is equal for
/// every presented workload under both warmup engines.
#[test]
fn threaded_deterministic_chip_is_bit_identical_to_serial() {
    for warmup in [WarmupMode::Detailed, WarmupMode::Functional] {
        for bench in MicroBenchmark::PRESENTED {
            let serial = run(bench, warmup, ChipParallelism::Serial, 20_000, 20_000);
            let threaded = run(
                bench,
                warmup,
                ChipParallelism::Threaded { quantum: 1 },
                20_000,
                20_000,
            );
            assert_eq!(
                observable(&serial),
                observable(&threaded),
                "{} under {warmup:?} warmup diverged between serial and threaded(1)",
                bench.name()
            );
        }
    }
}

/// A relaxed quantum reorders the two cores' shared-cache accesses
/// within each quantum window. It must therefore *not* be bit-identical
/// to serial on the §4.1 layout — if it were, the plan's chip mode would
/// not be reaching the chip — but the combined IPC must stay within 5%.
#[test]
fn relaxed_quantum_differs_from_serial_but_stays_within_tolerance() {
    let bench = MicroBenchmark::LdintL2;
    let serial = run(
        bench,
        WarmupMode::Detailed,
        ChipParallelism::Serial,
        100_000,
        100_000,
    );
    let relaxed = run(
        bench,
        WarmupMode::Detailed,
        ChipParallelism::Threaded { quantum: 4096 },
        100_000,
        100_000,
    );
    assert_ne!(
        observable(&serial),
        observable(&relaxed),
        "relaxed(4096) reproduced the serial interleaving bit for bit"
    );
    let (s, r) = (serial.total_ipc(), relaxed.total_ipc());
    let rel = (r - s).abs() / s;
    assert!(
        rel < 0.05,
        "relaxed(4096) total IPC {r:.4} strayed {:.1}% from serial {s:.4}",
        100.0 * rel
    );
}

/// Abort state on the quantum barrier is per-run: a run cut short by an
/// expired cancellation token stops both cores at the same quantum
/// boundary, and the *same* chip then completes a fresh run — nothing
/// poisoned, latched, or deadlocked survives into the next call.
#[test]
fn cancelled_relaxed_run_leaves_the_chip_reusable() {
    let mut cfg = CoreConfig::tiny_for_tests();
    cfg.plan.chip = ChipParallelism::Threaded { quantum: 512 };
    let mut chip = Chip::new(cfg);
    for id in CoreId::ALL {
        chip.core_mut(id).load_program(
            ThreadId::T0,
            MicroBenchmark::CpuInt.program_with_iterations(40),
        );
    }
    let expired = CancelToken::with_budget(Duration::ZERO);
    let ran = chip.try_run_cycles(200_000, Some(&expired));
    assert!(ran < 200_000, "expired token must cut the run short");

    let ran = chip.try_run_cycles(50_000, None);
    assert_eq!(ran, 50_000, "a cancelled run must not taint the next one");
    for id in CoreId::ALL {
        assert!(
            chip.core(id).stats().committed(ThreadId::T0) > 0,
            "{id:?} made no progress after recovery"
        );
    }
}
