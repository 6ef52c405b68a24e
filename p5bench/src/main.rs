//! `p5bench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path p5bench/Cargo.toml -- \
//!     --workload table3 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Runs one workload for `--seconds` of measured time, checks its
//! outputs against the references in `refs/`, prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`), and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed output check prints `"correct": false` and exits 1.
//! `--regen` rewrites the references from the library's own entry
//! points instead. README.md explains the workloads and metrics.

mod chip;
mod grid;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;
use trace::Layers;

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with its unit.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold quick Table 3 campaign.
    Table3,
    /// Quick priority sweep under the sampled plan.
    SweepSampled,
    /// In-process daemon with two closed-loop clients.
    ServeMixed,
    /// The isolated-vs-noisy chip experiment.
    ChipIsolation,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Table3,
        Workload::SweepSampled,
        Workload::ServeMixed,
        Workload::ChipIsolation,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3 => "table3",
            Workload::SweepSampled => "sweep_sampled",
            Workload::ServeMixed => "serve_mixed",
            Workload::ChipIsolation => "chip_isolation",
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Which workload runs.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads and client connections: the host's CPU count.
    pub jobs: usize,
    /// Scratch directory for journals and sockets, relative to the
    /// benchmark package.
    pub tmp: PathBuf,
}

/// What an untraced run measures; every workload fills all of it.
#[derive(Debug, Default)]
pub struct Run {
    /// Each repetition of the set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each workload iteration, seconds.
    pub iteration_s: Vec<f64>,
    /// Measured time the rates are taken over, seconds.
    pub window_s: f64,
    /// Per-cell latencies, milliseconds.
    pub cell_ms: Vec<f64>,
    /// Per-request latencies, milliseconds.
    pub req_ms: Vec<f64>,
    /// Simulated core-cycles (warm-up plus measurement).
    pub sim_cycles: f64,
    /// Operations attempted (cells and requests).
    pub attempted: u64,
    /// Of those, failed ones.
    pub failed: u64,
    /// Mean relative IPC error against the paper's Table 3, percent.
    pub paper_err_pct: f64,
    /// Peak resident set size at the end of the measured window, MB.
    pub peak_rss_mb: f64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Run {
    /// Records an output-check failure.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    fn end_to_end(&self) -> (Vec<Metric>, Vec<String>) {
        use stats::{median, ok_frac, ratio, tail};
        let cell_tail = tail(&self.cell_ms);
        let req_tail = tail(&self.req_ms);
        let notes = vec![
            format!("cell_tail_ms is p{:.1} of n={}", cell_tail.pct, cell_tail.n),
            format!("req_tail_ms is p{:.1} of n={}", req_tail.pct, req_tail.n),
        ];
        let metrics = vec![
            Metric::new("setup_s", median(&self.setup_s), "s"),
            Metric::new("wall_s", median(&self.iteration_s), "s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
            Metric::new("ok_frac", ok_frac(self.attempted, self.failed), "ratio"),
            Metric::new(
                "cells_per_s",
                ratio(self.cell_ms.len() as f64, self.window_s),
                "1/s",
            ),
            Metric::new(
                "sim_mcycles_per_s",
                ratio(self.sim_cycles / 1e6, self.window_s),
                "Mcycles/s",
            ),
            Metric::new("cell_p50_ms", median(&self.cell_ms), "ms"),
            Metric::new("cell_tail_ms", cell_tail.value, "ms"),
            Metric::new("req_p50_ms", median(&self.req_ms), "ms"),
            Metric::new("req_tail_ms", req_tail.value, "ms"),
            Metric::new(
                "req_per_s",
                ratio(self.req_ms.len() as f64, self.window_s),
                "1/s",
            ),
            Metric::new("paper_err_pct", self.paper_err_pct, "%"),
        ];
        (metrics, notes)
    }
}

/// Reference digests of the artifact-producing workloads.
const DIGESTS: &str = "refs/digests.txt";

/// FNV-1a digest of artifact texts, each followed by a NUL separator.
#[must_use]
pub fn digest(texts: &[String]) -> u64 {
    use std::hash::Hasher;
    let mut h = p5_experiments::journal::StableHasher::new();
    for text in texts {
        h.write(text.as_bytes());
        h.write(&[0]);
    }
    h.finish()
}

/// The reference digest of `workload` from [`DIGESTS`].
pub fn ref_digest(workload: Workload) -> Result<u64, String> {
    let text =
        std::fs::read_to_string(DIGESTS).map_err(|e| format!("cannot read {DIGESTS}: {e}"))?;
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload.name())
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
        .ok_or_else(|| format!("{DIGESTS} has no digest for {}", workload.name()))
}

/// Rewrites every reference from the library's own entry points.
fn regen() {
    let mut digests = grid::regen();
    digests.extend(chip::regen());
    let mut text = String::from(
        "# FNV-1a digests of each workload's exported artifact bytes, written by\n\
         # `p5bench --regen` from the library's own table3::run, sweep::run and\n\
         # noise::run at quick fidelity.\n",
    );
    for (workload, d) in digests {
        text.push_str(&format!("{} {d:016x}\n", workload.name()));
    }
    std::fs::write(DIGESTS, text).expect("the reference directory is writable");
}

/// Times `f` as one set-up repetition.
pub fn timed_setup<T>(run: &mut Run, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    run.setup_s.push(start.elapsed().as_secs_f64());
    out
}

/// Fewest set-up repetitions of an offline workload.
const SETUP_MIN_REPS: usize = 5;

/// Set-up time an offline workload repeats its set-up for, at least:
/// a set-up of a few milliseconds is repeated until the median of its
/// repetitions is steady.
const SETUP_MIN_S: f64 = 0.5;

/// Repeats the set-up `f` at least [`SETUP_MIN_REPS`] times and for at
/// least [`SETUP_MIN_S`] (so `setup_s` is a median over enough
/// repetitions) and returns the last one's result; the first failure
/// ends the repetitions.
pub fn repeated_setup<T>(
    run: &mut Run,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    loop {
        let out = timed_setup(run, &mut f)?;
        let spent: f64 = run.setup_s.iter().sum();
        if run.setup_s.len() >= SETUP_MIN_REPS && spent >= SETUP_MIN_S {
            return Ok(out);
        }
    }
}

/// Peak resident set size of this process so far, from
/// `/proc/self/status`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> ! {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: p5bench --workload <{}> --seed N --seconds S --trace 0|1\n       p5bench --regen",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args(raw: &[String]) -> Args {
    let value = |flag: &str| -> Option<&str> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload")
        .and_then(|name| Workload::ALL.into_iter().find(|w| w.name() == name))
        .unwrap_or_else(|| usage());
    let seed = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or_else(|| usage());
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
        jobs: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        tmp: PathBuf::from("tmp").join(format!("run-{}", std::process::id())),
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() {
    // Every relative path (references, scratch, sockets) is taken from
    // the benchmark package, wherever the command is started.
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")) {
        eprintln!("p5bench: cannot enter the benchmark directory: {e}");
        std::process::exit(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--regen") {
        regen();
        return;
    }
    let args = parse_args(&raw);
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!("p5bench: cannot create {}: {e}", args.tmp.display());
        std::process::exit(2);
    }
    eprintln!(
        "p5bench: workload {} seed {} for {} s, trace {}, {} jobs",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.jobs
    );
    let mut layers = args.trace.then(Layers::default);
    let run = match args.workload {
        Workload::Table3 | Workload::SweepSampled => grid::run(&args, layers.as_mut()),
        Workload::ServeMixed => serve::run(&args, layers.as_mut()),
        Workload::ChipIsolation => chip::run(&args, layers.as_mut()),
    };
    let _ = std::fs::remove_dir_all(&args.tmp);
    // Leaves the scratch parent in place while another run still uses it.
    let _ = args.tmp.parent().map(std::fs::remove_dir);
    let mut walls = run.iteration_s.clone();
    walls.sort_by(f64::total_cmp);
    eprintln!(
        "p5bench: {} iterations in {:.3} s, wall min {:.4} / median {:.4} / max {:.4} s",
        walls.len(),
        run.window_s,
        walls.first().copied().unwrap_or(0.0),
        stats::median(&walls),
        walls.last().copied().unwrap_or(0.0)
    );
    let mut setups = run.setup_s.clone();
    setups.sort_by(f64::total_cmp);
    eprintln!(
        "p5bench: {} set-ups, min {:.4} / median {:.4} / max {:.4} s",
        setups.len(),
        setups.first().copied().unwrap_or(0.0),
        stats::median(&setups),
        setups.last().copied().unwrap_or(0.0)
    );

    let (metrics, notes) = match &layers {
        Some(layers) => (layers.metrics(), Vec::new()),
        None => run.end_to_end(),
    };
    for note in &notes {
        println!("{note}");
    }
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &run.problems {
        println!("OUTPUT CHECK FAILED: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = run.problems.is_empty() && run.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
