//! `serve_mixed`: an in-process `p5-serve` daemon on a unix socket with
//! a persistent result cache, driven by closed-loop clients.
//!
//! The request shapes and their ratio follow the load the repository's
//! own `serve_bench` harness sends, at the quick fidelity of the CI
//! serve smoke:
//!
//! - the hot set is `serve_bench`'s 12-cell grid (`cpu_int`, `ldint_l1`,
//!   `ldint_l2`: three single-thread cells and the nine (4,4) pairs);
//! - a hit request replays that grid or its 6-cell overlapping
//!   sub-grid, as `serve_bench`'s warm leg does;
//! - a miss request is one never-seen cell, the shape of
//!   `p5_client --cell PRIMARY,SECONDARY,P,S`;
//! - each round has twenty hit requests per miss, `serve_bench`'s
//!   default of twenty warm campaigns per cold one.
//!
//! Set-up (repeated, median reported): create the cache directory,
//! start the daemon, pre-warm the hot set through the client, stop it,
//! and restart it from the journal it left — the daemon restart path.
//! Then two clients (one per CPU, at most two) each send rounds of
//! twenty-one requests and wait for every answer before sending the
//! next. Which hit requests are grids and which sub-grids, where the
//! miss falls, and which fresh cell it asks for are seeded. Fresh cells
//! come from a per-client key set disjoint from the other client's and
//! from the hot set, so the hit/miss split is fixed by the seed.
//! Output check: every served cell must be byte-identical to an offline
//! `run_isolated_cell` of the same spec.

use crate::trace::{check_trace, trace_cell, Layers};
use crate::{timed_setup, Args, Run};
use p5_experiments::campaign::{
    aggregate, cell_key, parallel_map, run_isolated_cell, CampaignSpec, CellOutcome,
};
use p5_experiments::journal::{measured_to_json, CellKey, ResultJournal};
use p5_experiments::table3::PAPER_TABLE3;
use p5_experiments::{Experiments, Measured};
use p5_isa::ThreadId;
use p5_microbench::MicroBenchmark as B;
use p5_serve::cache::ResultCache;
use p5_serve::client::{self, Endpoint};
use p5_serve::protocol::{CampaignRequest, CellRequest, Fidelity};
use p5_serve::server::Server;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Requests per client round; exactly one of them misses.
const ROUND: usize = 21;

/// Benchmarks whose quick cells are cheap and uniform in cost; every
/// fresh cell is built from them.
const CHEAP: [B; 8] = [
    B::CpuInt,
    B::CpuIntAdd,
    B::CpuIntMul,
    B::LngChainCpuint,
    B::BrHit,
    B::LdintL1,
    B::LdfpL1,
    B::CpuFp,
];

/// The hot set, `serve_bench`'s grid: the single-thread cells of three
/// benchmarks, then every (4,4) pair of them.
fn hot_cells() -> Vec<CellRequest> {
    let benches = [B::CpuInt, B::LdintL1, B::LdintL2];
    let single = |b: B| CellRequest {
        primary: b.name().to_string(),
        secondary: None,
        priorities: (4, 4),
    };
    let pairs = benches.into_iter().flat_map(|a| {
        benches.into_iter().map(move |b| CellRequest {
            secondary: Some(b.name().to_string()),
            ..single(a)
        })
    });
    benches.into_iter().map(single).chain(pairs).collect()
}

/// `serve_bench`'s overlapping sub-grid: every other hot cell.
fn hot_subgrid() -> Vec<CellRequest> {
    hot_cells().into_iter().step_by(2).collect()
}

/// splitmix64: the seeded stream behind the request mix.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Client `client`'s fresh cells in seeded order: pairs whose primary is
/// one of the client's own cheap benchmarks, at priorities 2..=6 no
/// more than one level apart, except the hot set's (4,4).
fn fresh_cells(client: usize, clients: usize, rng: &mut SplitMix) -> Vec<CellRequest> {
    let own = CHEAP
        .chunks(CHEAP.len() / clients)
        .nth(client)
        .unwrap_or(&[]);
    let mut cells = Vec::new();
    for p in own {
        for s in CHEAP {
            for a in 2..=6u8 {
                for b in 2..=6u8 {
                    if a.abs_diff(b) <= 1 && (a, b) != (4, 4) {
                        cells.push(CellRequest {
                            primary: p.name().to_string(),
                            secondary: Some(s.name().to_string()),
                            priorities: (a, b),
                        });
                    }
                }
            }
        }
    }
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i + 1));
    }
    cells
}

fn request(cells: Vec<CellRequest>, seed: u64) -> CampaignRequest {
    CampaignRequest {
        cells,
        grid: None,
        seed: Some(seed),
        ..CampaignRequest::table3(Fidelity::Quick)
    }
}

/// A running daemon.
struct Daemon {
    endpoint: Endpoint,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(dir: &Path, jobs: usize, cache: ResultCache) -> Result<Daemon, String> {
        let socket = dir.join("sock");
        let server = Server::bind_unix(&socket, jobs, cache)
            .map_err(|e| format!("cannot bind {}: {e}", socket.display()))?;
        let daemon = Daemon {
            endpoint: Endpoint::Unix(socket),
            thread: std::thread::spawn(move || server.serve()),
        };
        client::wait_ready(&daemon.endpoint, Duration::from_secs(10))
            .map_err(|e| format!("daemon never became ready: {e}"))?;
        Ok(daemon)
    }

    fn stop(self) -> Result<(), String> {
        client::shutdown(&self.endpoint).map_err(|e| format!("shutdown failed: {e}"))?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// One set-up: fresh cache directory, daemon, hot-set pre-warm, stop,
/// and a restart that resumes the journal the first daemon left.
fn setup(args: &Args, rep: usize, layers: Option<&mut Layers>) -> Result<Daemon, String> {
    let dir = args.tmp.join(format!("serve{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    let io = |e: std::io::Error| format!("cache directory {}: {e}", dir.display());
    let (cache, _) = ResultCache::persistent(&dir).map_err(io)?;
    let daemon = Daemon::start(&dir, args.jobs, cache)?;
    let hot = hot_cells();
    let warmed = client::run_campaign(&daemon.endpoint, &request(hot.clone(), args.seed))
        .map_err(|e| format!("pre-warm failed: {e}"))?;
    daemon.stop()?;
    if warmed.cached != 0 || warmed.result.cells.len() != hot.len() {
        return Err("the pre-warm did not simulate every hot cell".to_string());
    }
    let start = Instant::now();
    let (journal, loaded) = ResultJournal::resume(&dir).map_err(io)?;
    if let Some(layers) = layers {
        layers.journal_resume.add(start.elapsed());
    }
    if loaded.entries != hot.len() {
        return Err(format!(
            "resumed {} hot records, expected {}",
            loaded.entries,
            hot.len()
        ));
    }
    Daemon::start(
        &dir,
        args.jobs,
        ResultCache::from_journal(Arc::new(journal)),
    )
}

/// One served request.
struct Served {
    cells: Vec<CellRequest>,
    expect_hit: bool,
    latency_ms: f64,
    /// The served cells and how many of them came from the cache.
    outcome: Result<(Vec<CellOutcome>, usize), String>,
}

/// One client's closed loop: rounds of [`ROUND`] requests until the
/// window closes or its fresh cells run out. Returns its requests and
/// round wall times.
fn client_loop(
    endpoint: &Endpoint,
    seed: u64,
    client: usize,
    clients: usize,
    window: Duration,
    barrier: &Barrier,
) -> (Vec<Served>, Vec<f64>, Instant) {
    let mut rng = SplitMix(seed ^ (0xC1 + client as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let (grid, subgrid) = (hot_cells(), hot_subgrid());
    let mut fresh = fresh_cells(client, clients, &mut rng).into_iter();
    let (mut served, mut rounds) = (Vec::new(), Vec::new());
    barrier.wait();
    let start = Instant::now();
    let mut last = start;
    while start.elapsed() < window {
        let miss_at = rng.below(ROUND);
        let round_start = Instant::now();
        for i in 0..ROUND {
            let (cells, expect_hit) = if i == miss_at {
                match fresh.next() {
                    Some(cell) => (vec![cell], false),
                    None => return (served, rounds, last),
                }
            } else if rng.below(2) == 0 {
                (grid.clone(), true)
            } else {
                (subgrid.clone(), true)
            };
            let t = Instant::now();
            let result = client::run_campaign(endpoint, &request(cells.clone(), seed));
            last = Instant::now();
            let outcome = match result {
                Ok(s) if s.result.cells.len() == cells.len() => Ok((s.result.cells, s.cached)),
                Ok(s) => Err(format!(
                    "a {}-cell campaign came back with {} cells",
                    cells.len(),
                    s.result.cells.len()
                )),
                Err(e) => Err(e.to_string()),
            };
            served.push(Served {
                cells,
                expect_hit,
                latency_ms: (last - t).as_secs_f64() * 1e3,
                outcome,
            });
        }
        rounds.push(round_start.elapsed().as_secs_f64());
    }
    (served, rounds, last)
}

/// Runs `serve_mixed`; with `layers`, requests are split by hit and
/// miss, the offline checks go through the traced FAME path, and the
/// journal, wire and aggregation calls are timed.
pub fn run(args: &Args, mut layers: Option<&mut Layers>) -> Run {
    let mut run = Run::default();
    let mut daemon: Option<Daemon> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = daemon.take() {
            if let Err(e) = old.stop() {
                run.problem(e);
            }
        }
        match timed_setup(&mut run, || setup(args, rep, layers.as_deref_mut())) {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                run.problem(e);
                return run;
            }
        }
    }
    let daemon = daemon.expect("at least one set-up ran");

    let clients = args.jobs.clamp(1, 2);
    let window = Duration::from_secs_f64(args.seconds);
    let barrier = Barrier::new(clients + 1);
    let (served, rounds, window_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (endpoint, barrier) = (&daemon.endpoint, &barrier);
                scope.spawn(move || client_loop(endpoint, args.seed, c, clients, window, barrier))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let (mut served, mut rounds, mut end) = (Vec::new(), Vec::new(), start);
        for h in handles {
            let (s, r, last) = h.join().expect("client threads do not panic");
            served.extend(s);
            rounds.extend(r);
            end = end.max(last);
        }
        (served, rounds, (end - start).as_secs_f64())
    });
    run.peak_rss_mb = crate::peak_rss_mb();
    let stats = client::stats(&daemon.endpoint);
    if let Err(e) = daemon.stop() {
        run.problem(e);
    }
    run.window_s = window_s;
    run.iteration_s = rounds;
    if let (Some(layers), Ok(stats)) = (layers.as_deref_mut(), &stats) {
        layers.iterations = 1;
        layers.hit_rate = stats.hit_rate();
        layers.evictions = stats.evictions;
    }
    check(args, &served, &mut run, layers);
    run
}

/// Tallies the served requests and checks each against the split the
/// seed fixed and against an offline run of the same cell.
fn check(args: &Args, served: &[Served], run: &mut Run, mut layers: Option<&mut Layers>) {
    let ctx: Experiments = Fidelity::Quick.context();
    let mut distinct: BTreeMap<String, CellRequest> = BTreeMap::new();
    let mut outcomes: Vec<CellOutcome> = Vec::new();
    for s in served {
        // A request is one operation; its cells are what it served.
        run.attempted += 1;
        run.req_ms.push(s.latency_ms);
        let (cells, cached) = match &s.outcome {
            Ok(ok) => ok,
            Err(e) => {
                run.failed += 1;
                run.problem(format!("request for {:?} failed: {e}", s.cells));
                continue;
            }
        };
        run.failed += u64::from(
            cells
                .iter()
                .any(|o| crate::stats::is_failed(o.measured.status)),
        );
        let expected_cached = if s.expect_hit { cells.len() } else { 0 };
        if *cached != expected_cached {
            run.problem(format!(
                "a {} request of {} cells had {cached} served from the cache",
                if s.expect_hit { "hit" } else { "miss" },
                cells.len()
            ));
        }
        // Each served cell is charged an equal share of its request.
        let per_cell_ms = s.latency_ms / cells.len() as f64;
        for (outcome, req) in cells.iter().zip(&s.cells) {
            run.cell_ms.push(per_cell_ms);
            if !s.expect_hit {
                if let Some(r) = &outcome.measured.report {
                    run.sim_cycles += (r.warmup_cycles + r.measured_cycles) as f64;
                }
            }
            distinct
                .entry(outcome.label.clone())
                .or_insert_with(|| req.clone());
            outcomes.push(outcome.clone());
        }
        if let Some(layers) = layers.as_deref_mut() {
            let bucket = if s.expect_hit {
                &mut layers.hit_req_ms
            } else {
                &mut layers.miss_req_ms
            };
            bucket.push(s.latency_ms);
            let _ = layers.aggregate.time(|| aggregate(cells.clone()));
        }
    }

    // Offline reference of every distinct cell, by label.
    let cells: Vec<(String, CampaignSpec)> = distinct
        .into_iter()
        .filter_map(|(label, req)| match req.resolve() {
            Ok(cell) => Some((
                label,
                CampaignSpec {
                    cells: vec![cell],
                    jobs: 1,
                    seed: args.seed,
                    reuse_warmup: false,
                },
            )),
            Err(e) => {
                run.problem(format!("served cell {label} does not resolve: {e}"));
                None
            }
        })
        .collect();
    let start = Instant::now();
    let measured = parallel_map(args.jobs, cells.len(), |i| {
        let spec = &cells[i].1;
        run_isolated_cell(&ctx, spec, 0, &spec.cells[0]).0
    });
    let untraced_wall = start.elapsed().as_secs_f64();
    let offline: BTreeMap<&str, Measured> = cells
        .iter()
        .map(|(l, _)| l.as_str())
        .zip(measured)
        .collect();
    for o in &outcomes {
        let same = offline.get(o.label.as_str()).is_some_and(|reference| {
            measured_to_json(&o.measured).to_string() == measured_to_json(reference).to_string()
        });
        if !same {
            run.problem(format!("served {} differs from its offline run", o.label));
        }
    }
    if let Some(layers) = layers {
        if let Err(e) = trace_check(
            args,
            &ctx,
            &cells,
            &offline,
            &outcomes,
            untraced_wall,
            layers,
        ) {
            run.problem(e);
        }
    }

    let mut paper = Vec::new();
    for req in hot_cells() {
        let Ok(cell) = req.resolve() else { continue };
        let Some(m) = offline.get(cell.label.as_str()) else {
            continue;
        };
        let row = |name: &str| B::PRESENTED.iter().position(|b| b.name() == name);
        let (Some(i), Some(ipc)) = (row(&req.primary), m.ipc(ThreadId::T0)) else {
            continue;
        };
        let reference = match req.secondary.as_deref() {
            None => PAPER_TABLE3[i].0,
            Some(secondary) => match row(secondary) {
                Some(j) => PAPER_TABLE3[i].1[j].0,
                None => continue,
            },
        };
        paper.push((ipc, reference));
    }
    run.paper_err_pct = crate::stats::mean_rel_err_pct(paper);
}

/// The traced replay of the offline check: every distinct cell through
/// the FAME and core calls (checked against its offline run), timed
/// `cell_key` calls, and journal and wire round trips.
fn trace_check(
    args: &Args,
    ctx: &Experiments,
    cells: &[(String, CampaignSpec)],
    offline: &BTreeMap<&str, Measured>,
    outcomes: &[CellOutcome],
    untraced_wall: f64,
    layers: &mut Layers,
) -> Result<(), String> {
    let start = Instant::now();
    let traces = parallel_map(args.jobs, cells.len(), |i| {
        let spec = &cells[i].1;
        trace_cell(ctx, spec, 0, &spec.cells[0])
    });
    layers.traced_walls.push(start.elapsed().as_secs_f64());
    layers.untraced_walls.push(untraced_wall);
    let mut journaled: Vec<(CellKey, &Measured)> = Vec::new();
    for ((label, spec), trace) in cells.iter().zip(&traces) {
        layers.add_cell(trace);
        let reference = &offline[label.as_str()];
        check_trace(trace, reference, label)?;
        let key = layers
            .cell_key
            .time(|| cell_key(ctx, spec, 0, &spec.cells[0]));
        journaled.push((key, reference));
    }
    layers.journal_round_trip(&args.tmp.join("verify"), &journaled)?;
    layers.wire_round_trip(outcomes)
}
