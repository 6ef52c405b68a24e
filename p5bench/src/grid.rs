//! The two campaign workloads.
//!
//! - `table3`: the cold quick Table 3 campaign (6 ST + 36 SMT(4,4)
//!   cells) under the detailed plan, exported as CSV and JSON.
//! - `sweep_sampled`: the 396-cell quick priority sweep (differences
//!   −5..=5) under the sampled plan, projected into Figures 2–4.
//!
//! Both run through `Campaign::run_observed` at `--jobs` = the host's
//! CPU count with no journal; the seed is the campaign seed. Output
//! check: the exported bytes must hash to the digest in
//! `refs/digests.txt`, which `--regen` takes from the library's own
//! `table3::run` and `sweep::run`.

use crate::trace::{cell_context, check_trace, prepare_core, trace_cell, Layers, Span};
use crate::{digest, ref_digest, repeated_setup, Args, Run, Workload};
use p5_core::ExecutionPlan;
use p5_experiments::campaign::{
    aggregate, cell_key, parallel_map, Campaign, CampaignEvent, CampaignResult, CampaignSpec,
    CellSpec,
};
use p5_experiments::journal::CellKey;
use p5_experiments::sweep::{PrioritySweep, SweepCell};
use p5_experiments::table3::PAPER_TABLE3;
use p5_experiments::{
    export, fig2, fig3, fig4, priority_pair, sweep, table3, Experiments, Measured,
};
use p5_isa::ThreadId;
use p5_microbench::MicroBenchmark;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Priority differences of the sweep Figures 2–4 are projected from.
const SWEEP_DIFFS: [i32; 11] = [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5];

/// The sampled sweep's detailed-plan reference: per cell, in cell-id
/// order, the (PThread, SThread) IPC.
const SWEEP_DETAILED_REF: &str = "refs/sweep_detailed.txt";

/// The quick context of a workload, with the seed as campaign seed.
fn context(workload: Workload, jobs: usize, seed: u64) -> Experiments {
    let mut ctx = Experiments::quick().with_jobs(jobs);
    if workload == Workload::SweepSampled {
        ctx = ctx.with_plan(ExecutionPlan::parse("sampled").expect("`sampled` is a valid plan"));
    }
    ctx.core.rng_seed = seed;
    ctx
}

/// The sweep's cells in `sweep::run`'s order: difference-major, then
/// PThread, then SThread, so cell `(k, i, j)` has id `k*36 + i*6 + j`.
fn sweep_cells() -> Vec<CellSpec> {
    let benches = MicroBenchmark::PRESENTED;
    let mut cells = Vec::with_capacity(SWEEP_DIFFS.len() * benches.len() * benches.len());
    for &diff in &SWEEP_DIFFS {
        for a in &benches {
            for b in &benches {
                cells.push(CellSpec::pair(
                    format!("({},{}) at diff {diff:+}", a.name(), b.name()),
                    a.program(),
                    b.program(),
                    priority_pair(diff),
                ));
            }
        }
    }
    cells
}

/// Folds a sweep campaign into its grid, as `sweep::run` does.
fn fold_sweep(result: &CampaignResult) -> PrioritySweep {
    let grids = (0..SWEEP_DIFFS.len())
        .map(|k| {
            let mut grid = [[SweepCell {
                pt_ipc: 0.0,
                st_ipc: 0.0,
                total_ipc: 0.0,
            }; 6]; 6];
            for (i, row) in grid.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    let (pt, st) = thread_ipcs(result.measured(k * 36 + i * 6 + j));
                    *cell = SweepCell {
                        pt_ipc: pt,
                        st_ipc: st,
                        total_ipc: pt + st,
                    };
                }
            }
            grid
        })
        .collect();
    PrioritySweep {
        diffs: SWEEP_DIFFS.to_vec(),
        grids,
        degraded: result.degraded.clone(),
        recovered: result.recovered,
        counts: result.counts(),
    }
}

fn thread_ipcs(m: &Measured) -> (f64, f64) {
    (
        m.ipc(ThreadId::T0).unwrap_or(0.0),
        m.ipc(ThreadId::T1).unwrap_or(0.0),
    )
}

/// The exported bytes of a sweep: Figures 2–4 as CSV and JSON plus the
/// grid itself (the figures are ratios, the grid pins the IPCs).
fn sweep_texts(s: &PrioritySweep) -> Vec<String> {
    let (f2, f3, f4) = (
        fig2::Fig2Result::from_sweep(s),
        fig3::Fig3Result::from_sweep(s),
        fig4::Fig4Result::from_sweep(s),
    );
    vec![
        export::fig2_csv(&f2),
        export::fig2_json(&f2),
        export::fig3_csv(&f3),
        export::fig3_json(&f3),
        export::fig4_csv(&f4),
        export::fig4_json(&f4),
        format!("{:?}", s.grids),
    ]
}

/// One campaign's projected artifact.
struct Artifact {
    texts: Vec<String>,
    paper_err_pct: f64,
}

/// Projects a campaign into its artifact, timing the export writers.
fn project(
    workload: Workload,
    result: &CampaignResult,
    export_span: &mut Span,
) -> Result<Artifact, String> {
    if workload == Workload::Table3 {
        let r = table3::from_campaign(result).map_err(|e| e.to_string())?;
        let texts = export_span.time(|| vec![export::table3_csv(&r), export::table3_json(&r)]);
        let pairs = (0..6).flat_map(|i| {
            std::iter::once((r.st[i], PAPER_TABLE3[i].0))
                .chain((0..6).map(move |j| (r.pt[i][j], PAPER_TABLE3[i].1[j].0)))
        });
        return Ok(Artifact {
            texts,
            paper_err_pct: crate::stats::mean_rel_err_pct(pairs.collect::<Vec<_>>()),
        });
    }
    if result.all_degraded() {
        return Err("every sweep cell degraded".to_string());
    }
    let s = fold_sweep(result);
    let texts = export_span.time(|| sweep_texts(&s));
    // Difference 0 is SMT(4,4), the paper's Table 3 pt column.
    let pairs = (0..6)
        .flat_map(|i| (0..6).map(move |j| (i, j)))
        .map(|(i, j)| (s.baseline(i, j).pt_ipc, PAPER_TABLE3[i].1[j].0));
    Ok(Artifact {
        texts,
        paper_err_pct: crate::stats::mean_rel_err_pct(pairs.collect::<Vec<_>>()),
    })
}

/// A campaign run with the claim and finish time of every cell.
struct Observed {
    result: CampaignResult,
    wall_ms: f64,
    /// Per cell id: milliseconds from the campaign start to its claim.
    starts: Vec<f64>,
    /// Per cell id: milliseconds from the campaign start to its finish.
    ends: Vec<f64>,
}

fn observe(ctx: &Experiments, spec: &CampaignSpec) -> Observed {
    let n = spec.cells.len();
    let starts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let ends: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let t0 = Instant::now();
    let since = || u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    // Relaxed is enough: each slot is written once by a worker, and
    // `run_observed` joins its workers before returning, which orders
    // every store before the loads below.
    let result = Campaign::run_observed(ctx, spec, |event| match *event {
        CampaignEvent::CellStarted { id, .. } => starts[id].store(since(), Ordering::Relaxed),
        CampaignEvent::CellFinished { id, .. } => ends[id].store(since(), Ordering::Relaxed),
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let ms = |v: &[AtomicU64]| -> Vec<f64> {
        v.iter()
            .map(|a| a.load(Ordering::Relaxed) as f64 / 1e6)
            .collect()
    };
    Observed {
        result,
        wall_ms,
        starts: ms(&starts),
        ends: ms(&ends),
    }
}

/// Everything an iteration needs, built once per set-up repetition.
struct Setup {
    workload: Workload,
    ctx: Experiments,
    spec: CampaignSpec,
    digest: u64,
    /// Detailed-plan (pt, st) IPC per cell; sweep only.
    detailed: Vec<(f64, f64)>,
}

impl Setup {
    /// The context, cell list and references, plus the cold preparation
    /// of every cell — its context, a fresh core and its programs
    /// loaded — which each campaign repeats before its first simulated
    /// cycle. The cores are dropped; a failure to build one fails the
    /// run.
    fn new(args: &Args) -> Result<Setup, String> {
        let ctx = context(args.workload, args.jobs, args.seed);
        let cells = match args.workload {
            Workload::Table3 => table3::cells(),
            _ => sweep_cells(),
        };
        let spec = CampaignSpec::for_ctx(&ctx, cells);
        for (id, cell) in spec.cells.iter().enumerate() {
            let core = prepare_core(&cell_context(&ctx, &spec, id, cell), cell)
                .map_err(|e| format!("cannot build the core of {}: {e}", cell.label))?;
            std::hint::black_box(core);
        }
        let detailed = if args.workload == Workload::SweepSampled {
            read_detailed_ref()?
        } else {
            Vec::new()
        };
        if !detailed.is_empty() && detailed.len() != spec.cells.len() {
            return Err(format!(
                "{SWEEP_DETAILED_REF} holds {} cells, the sweep has {}",
                detailed.len(),
                spec.cells.len()
            ));
        }
        Ok(Setup {
            workload: args.workload,
            digest: ref_digest(args.workload)?,
            ctx,
            spec,
            detailed,
        })
    }
}

fn read_detailed_ref() -> Result<Vec<(f64, f64)>, String> {
    let text = std::fs::read_to_string(SWEEP_DETAILED_REF)
        .map_err(|e| format!("cannot read {SWEEP_DETAILED_REF}: {e}"))?;
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut it = l.split_whitespace().skip(1).map(str::parse::<f64>);
            match (it.next(), it.next()) {
                (Some(Ok(pt)), Some(Ok(st))) => Ok((pt, st)),
                _ => Err(format!("malformed line in {SWEEP_DETAILED_REF}: {l}")),
            }
        })
        .collect()
}

/// Runs `table3` or `sweep_sampled`; with `layers`, every iteration is
/// also traced.
pub fn run(args: &Args, mut layers: Option<&mut Layers>) -> Run {
    let mut run = Run::default();
    let setup = match repeated_setup(&mut run, || Setup::new(args)) {
        Ok(setup) => setup,
        Err(e) => {
            run.problem(e);
            return run;
        }
    };
    let mut spent = 0.0;
    while spent < args.seconds && run.problems.is_empty() {
        spent += iterate(&setup, args, layers.as_deref_mut(), &mut run);
    }
    run.window_s = run.iteration_s.iter().sum();
    run.peak_rss_mb = crate::peak_rss_mb();
    run
}

/// One campaign plus its checks (and, traced, its traced replay);
/// returns the seconds it took.
fn iterate(setup: &Setup, args: &Args, layers: Option<&mut Layers>, run: &mut Run) -> f64 {
    let start = Instant::now();
    let observed = observe(&setup.ctx, &setup.spec);
    let mut export_span = Span::default();
    let artifact = project(setup.workload, &observed.result, &mut export_span);
    let wall = start.elapsed().as_secs_f64();

    run.iteration_s.push(wall);
    run.req_ms.push(wall * 1e3);
    for (outcome, (s, e)) in observed
        .result
        .cells
        .iter()
        .zip(observed.starts.iter().zip(&observed.ends))
    {
        run.attempted += 1;
        run.failed += u64::from(crate::stats::is_failed(outcome.measured.status));
        run.cell_ms.push(e - s);
        if let Some(r) = &outcome.measured.report {
            run.sim_cycles += (r.warmup_cycles + r.measured_cycles) as f64;
        }
    }
    match artifact {
        Ok(a) if digest(&a.texts) == setup.digest => run.paper_err_pct = a.paper_err_pct,
        Ok(_) => run.problem(format!(
            "{} artifact bytes differ from refs/digests.txt",
            setup.workload.name()
        )),
        Err(e) => run.problem(e),
    }
    if let Some(layers) = layers {
        layers.export.merge(export_span);
        if let Err(e) = trace_iteration(setup, args, layers, &observed) {
            run.problem(e);
        }
    }
    start.elapsed().as_secs_f64()
}

/// The traced replay of one campaign: campaign events, timed
/// `cell_key` and `aggregate` calls, every cell through the FAME and
/// core calls (checked against the campaign's reports), and journal and
/// wire round trips of every outcome.
fn trace_iteration(
    setup: &Setup,
    args: &Args,
    layers: &mut Layers,
    observed: &Observed,
) -> Result<(), String> {
    let (ctx, spec) = (&setup.ctx, &setup.spec);
    let n = spec.cells.len();
    layers.iterations += 1;
    layers.untraced_walls.push(observed.wall_ms / 1e3);
    layers.add_campaign(
        &observed.starts,
        &observed.ends,
        observed.wall_ms,
        ctx.jobs.min(args.jobs).min(n),
    );

    let keys: Vec<CellKey> = spec
        .cells
        .iter()
        .enumerate()
        .map(|(id, cell)| layers.cell_key.time(|| cell_key(ctx, spec, id, cell)))
        .collect();
    let outcomes = observed.result.cells.clone();
    let _ = layers.aggregate.time(|| aggregate(outcomes));

    let start = Instant::now();
    let traces = parallel_map(ctx.jobs, n, |id| trace_cell(ctx, spec, id, &spec.cells[id]));
    layers.traced_walls.push(start.elapsed().as_secs_f64());
    for (trace, outcome) in traces.iter().zip(&observed.result.cells) {
        layers.add_cell(trace);
        check_trace(trace, &outcome.measured, &outcome.label)?;
    }
    if !setup.detailed.is_empty() {
        let pairs = observed
            .result
            .cells
            .iter()
            .zip(&setup.detailed)
            .flat_map(|(o, &(pt, st))| {
                let (spt, sst) = thread_ipcs(&o.measured);
                [(spt, pt), (sst, st)]
            });
        layers.sampled_err_pct = crate::stats::mean_rel_err_pct(pairs.collect::<Vec<_>>());
    }

    let journaled: Vec<(CellKey, &Measured)> = keys
        .iter()
        .copied()
        .zip(observed.result.cells.iter().map(|o| &o.measured))
        .collect();
    layers.journal_round_trip(&args.tmp.join("journal"), &journaled)?;
    layers.wire_round_trip(&observed.result.cells)
}

/// Regenerates the campaign workloads' references from the library's
/// own entry points (`table3::run`, `sweep::run`), returning their
/// digests and rewriting the sweep's detailed-plan reference.
pub fn regen() -> Vec<(Workload, u64)> {
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let seed = Experiments::quick().core.rng_seed;
    let t3 = table3::run(&context(Workload::Table3, jobs, seed)).expect("table3 runs");
    let sampled = sweep::run(&context(Workload::SweepSampled, jobs, seed), &SWEEP_DIFFS)
        .expect("the sampled sweep runs");
    let detailed = sweep::run(&context(Workload::Table3, jobs, seed), &SWEEP_DIFFS)
        .expect("the detailed sweep runs");
    let mut text = String::from(
        "# Quick detailed-plan priority sweep, differences -5..=5: one line per\n\
         # cell in sweep order (diff, pthread, sthread): label, pt IPC, st IPC.\n",
    );
    for (k, diff) in SWEEP_DIFFS.iter().enumerate() {
        for (i, a) in MicroBenchmark::PRESENTED.iter().enumerate() {
            for (j, b) in MicroBenchmark::PRESENTED.iter().enumerate() {
                let c = detailed.grids[k][i][j];
                text.push_str(&format!(
                    "{diff:+}/{}/{} {:?} {:?}\n",
                    a.name(),
                    b.name(),
                    c.pt_ipc,
                    c.st_ipc
                ));
            }
        }
    }
    std::fs::write(SWEEP_DETAILED_REF, text).expect("the reference directory is writable");
    vec![
        (
            Workload::Table3,
            digest(&[export::table3_csv(&t3), export::table3_json(&t3)]),
        ),
        (Workload::SweepSampled, digest(&sweep_texts(&sampled))),
    ]
}
