//! `chip_isolation`: the paper's §4.1 measurement-isolation experiment
//! (`noise::run`) at quick fidelity — `ldint_l2` on core 1 of a
//! two-core chip with shared L2/L3, once beside an idle core 0 and once
//! beside two OS-noise threads, each [`WARM_CYCLES`] of warm-up and
//! [`MEASURE_CYCLES`] of measurement through `Chip::run_cycles`. It is
//! the only production caller of the chip layer. One iteration (one
//! `noise::run`, several seconds) counts as one cell and one request.
//! Output check: the result's full-precision rendering must hash to the
//! digest in `refs/digests.txt`, taken from `noise::run` on the
//! unmodified quick context.

use crate::trace::Layers;
use crate::{digest, ref_digest, repeated_setup, Args, Run, Workload};
use p5_core::{Chip, CoreId};
use p5_experiments::noise::{self, NoiseResult, Regime};
use p5_experiments::table3::PAPER_TABLE3;
use p5_experiments::Experiments;
use p5_isa::ThreadId;
use p5_microbench::MicroBenchmark;
use std::time::Instant;

/// Warm-up horizon, chip cycles: the quick experiment's.
const WARM_CYCLES: u64 = 6_000_000;

/// Measured horizon, chip cycles: the quick experiment's.
const MEASURE_CYCLES: u64 = 4_000_000;

/// The quick context with the seed as the core's RNG seed and the FAME
/// budgets `noise::run` bounds its horizons by set to [`WARM_CYCLES`]
/// and [`MEASURE_CYCLES`]. The quick budgets are larger than the
/// horizons `noise::run` allows, so this runs the same experiment as
/// the unmodified quick context (the reference digest is taken from
/// that one), and the benchmark knows the simulated cycles without
/// repeating `noise::run`'s own bound: were that bound ever lowered,
/// the digest check would fail.
fn context(seed: u64) -> Experiments {
    let mut ctx = Experiments::quick();
    ctx.fame.warmup.max_cycles = WARM_CYCLES;
    ctx.fame.max_cycles = MEASURE_CYCLES;
    ctx.core.rng_seed = seed;
    ctx
}

/// The paper's single-thread IPC of `bench`, which the isolated regime
/// should reproduce.
fn paper_st_ipc(bench: MicroBenchmark) -> f64 {
    let row = MicroBenchmark::PRESENTED
        .iter()
        .position(|&b| b == bench)
        .expect("the noise benchmark is a presented one");
    PAPER_TABLE3[row].0
}

/// A regime's chip, built and loaded as `noise::run` does: `bench` on
/// core 1, and with `noisy` the OS-noise program on both contexts of
/// core 0.
fn regime_chip(ctx: &Experiments, bench: MicroBenchmark, noisy: bool) -> Chip {
    let mut chip = Chip::new(ctx.core.clone());
    chip.core_mut(CoreId::C1)
        .load_program(ThreadId::T0, bench.program());
    if noisy {
        for t in ThreadId::ALL {
            chip.core_mut(CoreId::C0)
                .load_program(t, noise::os_noise_program());
        }
    }
    chip
}

/// Everything an iteration needs, built once per set-up repetition.
struct Setup {
    ctx: Experiments,
    expected: u64,
}

impl Setup {
    /// The context and reference digest, plus the cold preparation of
    /// both regimes' chips (construction and program loading), which
    /// each `noise::run` repeats before its first simulated cycle.
    fn new(seed: u64) -> Result<Setup, String> {
        let ctx = context(seed);
        let expected = ref_digest(Workload::ChipIsolation)?;
        for noisy in [false, true] {
            // `noise::run` measures `ldint_l2`.
            std::hint::black_box(regime_chip(&ctx, MicroBenchmark::LdintL2, noisy));
        }
        Ok(Setup { ctx, expected })
    }
}

/// One regime driven through timed `Chip::run_cycles` calls, loaded and
/// measured exactly as `noise::run` does.
fn traced_regime(
    ctx: &Experiments,
    bench: MicroBenchmark,
    noisy: bool,
    layers: &mut Layers,
) -> Result<Regime, String> {
    let mut chip = regime_chip(ctx, bench, noisy);
    layers.chip_warm.time(|| chip.run_cycles(WARM_CYCLES));
    chip.reset_stats();
    let start = Instant::now();
    chip.run_cycles(MEASURE_CYCLES);
    let elapsed = start.elapsed();
    let stats = chip.core(CoreId::C1).stats();
    if stats.cycles != MEASURE_CYCLES {
        return Err(format!(
            "the traced chip measured {} cycles, not {MEASURE_CYCLES}",
            stats.cycles
        ));
    }
    if noisy {
        layers.chip_noisy.add(elapsed);
        layers.chip_noisy_cycles += stats.cycles;
    } else {
        layers.chip_isolated.add(elapsed);
        layers.chip_isolated_cycles += stats.cycles;
    }
    layers.add_chip(&chip, elapsed);

    let reps = &stats.thread(ThreadId::T0).repetitions;
    let durations: Vec<f64> = reps
        .windows(2)
        .map(|w| (w[1].end_cycle - w[0].end_cycle) as f64)
        .collect();
    let repetition_cv = if durations.len() >= 2 {
        let n = durations.len() as f64;
        let mean = durations.iter().sum::<f64>() / n;
        let var = durations
            .iter()
            .map(|d| (d - mean) * (d - mean))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    } else {
        0.0
    };
    Ok(Regime {
        mean_ipc: stats.ipc(ThreadId::T0),
        repetition_cv,
        repetitions: reps.len(),
    })
}

/// Runs `chip_isolation`; with `layers`, every iteration is also
/// replayed through timed chip calls and checked against `noise::run`.
pub fn run(args: &Args, mut layers: Option<&mut Layers>) -> Run {
    let mut run = Run::default();
    let Setup { ctx, expected } = match repeated_setup(&mut run, || Setup::new(args.seed)) {
        Ok(setup) => setup,
        Err(e) => {
            run.problem(e);
            return run;
        }
    };
    let mut spent = 0.0;
    while spent < args.seconds && run.problems.is_empty() {
        let start = Instant::now();
        let result = noise::run(&ctx);
        let wall = start.elapsed().as_secs_f64();
        run.iteration_s.push(wall);
        run.req_ms.push(wall * 1e3);
        run.cell_ms.push(wall * 1e3);
        // `noise::run` has no failure outcome (it panics on a broken
        // chip), so an iteration that returns counts as done.
        run.attempted += 1;
        // Two regimes, each warm-up plus measurement on both cores.
        run.sim_cycles += (2 * 2 * (WARM_CYCLES + MEASURE_CYCLES)) as f64;
        let rendered = format!("{result:?}");
        if digest(std::slice::from_ref(&rendered)) != expected {
            run.problem("chip_isolation result differs from refs/digests.txt");
        }
        run.paper_err_pct = crate::stats::mean_rel_err_pct([(
            result.isolated.mean_ipc,
            paper_st_ipc(result.bench),
        )]);
        if let Some(layers) = layers.as_deref_mut() {
            layers.iterations += 1;
            layers.untraced_walls.push(wall);
            let start = Instant::now();
            let traced = traced_regime(&ctx, result.bench, false, layers).and_then(|isolated| {
                Ok(NoiseResult {
                    bench: result.bench,
                    isolated,
                    noisy: traced_regime(&ctx, result.bench, true, layers)?,
                })
            });
            layers.traced_walls.push(start.elapsed().as_secs_f64());
            match traced {
                Ok(traced) if format!("{traced:?}") == rendered => {}
                Ok(_) => run.problem("traced chip regimes differ from noise::run"),
                Err(e) => run.problem(e),
            }
        }
        spent += start.elapsed().as_secs_f64();
    }
    run.window_s = run.iteration_s.iter().sum();
    run.peak_rss_mb = crate::peak_rss_mb();
    run
}

/// The chip workload's reference digest, from the library's own
/// `noise::run` on the unmodified quick context.
pub fn regen() -> Vec<(Workload, u64)> {
    vec![(
        Workload::ChipIsolation,
        digest(&[format!("{:?}", noise::run(&Experiments::quick()))]),
    )]
}
