//! The traced run's layer accounting.
//!
//! Spans are timed from this benchmark's own code around calls into
//! each layer's public functions; nothing inside the simulator is
//! instrumented. Each workload fills the layers it reaches, and
//! [`Layers::metrics`] reports every layer's metrics — a layer a
//! workload never calls reads zero.

use crate::Metric;
use p5_core::{SimError, SmtCore};
use p5_experiments::campaign::{derive_cell_seed, CampaignSpec, CellOutcome, CellSpec};
use p5_experiments::journal::{measured_to_json, CellKey, ResultJournal};
use p5_experiments::{CellStatus, Experiments, Measured};
use p5_fame::{FameConfig, FameReport, FameRunner};
use p5_isa::ThreadId;
use p5_serve::protocol::Response;
use std::path::Path;
use std::time::{Duration, Instant};

/// Accumulated wall time of one kind of call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    ns: f64,
    calls: u64,
}

impl Span {
    /// Times `f` into this span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(start.elapsed());
        out
    }

    /// Adds one call of duration `d`.
    pub fn add(&mut self, d: Duration) {
        self.ns += d.as_secs_f64() * 1e9;
        self.calls += 1;
    }

    /// Adds every call of `other`.
    pub fn merge(&mut self, other: Span) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Mean time per call in units of `unit_ns` nanoseconds.
    fn mean(&self, unit_ns: f64) -> f64 {
        crate::stats::ratio(self.ns, self.calls as f64) / unit_ns
    }

    /// Total time in units of `unit_ns` nanoseconds.
    fn total(&self, unit_ns: f64) -> f64 {
        self.ns / unit_ns
    }
}

/// Simulated memory-hierarchy counts (hits, misses) per level.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemCounts {
    l1: [u64; 2],
    l2: [u64; 2],
    l3: [u64; 2],
    tlb: [u64; 2],
    mem_accesses: u64,
}

impl MemCounts {
    /// The core-private part: L1 and main-memory accesses.
    fn private(core: &SmtCore) -> MemCounts {
        let mem = core.mem();
        let l1 = mem.l1_stats();
        MemCounts {
            l1: [l1.total_hits(), l1.total_misses()],
            mem_accesses: ThreadId::ALL
                .iter()
                .map(|&t| mem.stats().memory_accesses(t))
                .sum(),
            ..MemCounts::default()
        }
    }

    /// Everything one core sees: its private levels plus the L2, L3 and
    /// TLB (which merge both cores' counts when a chip shares them, so
    /// a chip reads them from one core only).
    pub fn of(core: &SmtCore) -> MemCounts {
        let mem = core.mem();
        let (l2, l3, tlb) = (mem.l2_stats(), mem.l3_stats(), mem.tlb_stats());
        MemCounts {
            l2: [l2.total_hits(), l2.total_misses()],
            l3: [l3.total_hits(), l3.total_misses()],
            tlb: [tlb.hits.iter().sum(), tlb.total_misses()],
            ..MemCounts::private(core)
        }
    }

    /// Both cores of a chip: private levels of each, shared levels once.
    pub fn of_chip(chip: &p5_core::Chip) -> MemCounts {
        let mut counts = MemCounts::of(chip.core(p5_core::CoreId::C1));
        counts.merge(MemCounts::private(chip.core(p5_core::CoreId::C0)));
        counts
    }

    fn merge(&mut self, o: MemCounts) {
        for (a, b) in [
            (&mut self.l1, o.l1),
            (&mut self.l2, o.l2),
            (&mut self.l3, o.l3),
            (&mut self.tlb, o.tlb),
        ] {
            a[0] += b[0];
            a[1] += b[1];
        }
        self.mem_accesses += o.mem_accesses;
    }

    fn miss_rate(level: [u64; 2]) -> f64 {
        crate::stats::ratio(level[1] as f64, (level[0] + level[1]) as f64)
    }
}

/// One cell driven through the public FAME and core calls.
#[derive(Debug)]
pub struct CellTrace {
    /// The resilient outcome, built as the campaign engine builds it.
    pub measured: Measured,
    warm: Span,
    measure: Span,
    cycles: u64,
    insts: u64,
    mem: MemCounts,
    threads: u64,
    converged: u64,
    repetitions: u64,
    samples: u64,
}

/// The context cell `id` of `spec` runs under: the campaign engine's
/// derived seed and the cell's plan overrides.
#[must_use]
pub fn cell_context(
    ctx: &Experiments,
    spec: &CampaignSpec,
    id: usize,
    cell: &CellSpec,
) -> Experiments {
    let mut cell_ctx = ctx.clone();
    cell_ctx.core.rng_seed = derive_cell_seed(spec.seed, id as u64);
    if let Some(mode) = cell.warmup {
        cell_ctx.core.plan.warmup = mode;
    }
    if let Some(mode) = cell.measure {
        cell_ctx.core.plan.measure = mode;
    }
    cell_ctx
}

/// A fresh core for `cell` under its context, with the cell's programs
/// and priorities loaded, as the campaign engine's cell setup does.
pub fn prepare_core(cell_ctx: &Experiments, cell: &CellSpec) -> Result<SmtCore, SimError> {
    let mut core = cell_ctx.try_new_core()?;
    core.load_program(ThreadId::T0, cell.primary.clone());
    if let Some(secondary) = &cell.secondary {
        core.load_program(ThreadId::T1, secondary.clone());
        core.set_priority(ThreadId::T0, cell.priorities.0);
        core.set_priority(ThreadId::T1, cell.priorities.1);
    }
    Ok(core)
}

/// Runs cell `id` of `spec` through `FameRunner::warm_only` and
/// `FameRunner::try_measure_restored` on a fresh core, with the
/// campaign engine's seed derivation and escalated-budget retry, timing
/// both phases and reading the core's statistics after each attempt.
/// Warm-up followed directly by a restored-boundary measurement is the
/// same computation as `try_measure`, so the report must equal the
/// campaign's for the same cell.
#[must_use]
pub fn trace_cell(ctx: &Experiments, spec: &CampaignSpec, id: usize, cell: &CellSpec) -> CellTrace {
    let cell_ctx = cell_context(ctx, spec, id, cell);
    let sampled = !matches!(cell_ctx.core.plan.measure, p5_core::MeasureMode::Detailed);
    let mut trace = CellTrace {
        measured: Measured {
            report: None,
            status: CellStatus::Ok,
            error: None,
        },
        warm: Span::default(),
        measure: Span::default(),
        cycles: 0,
        insts: 0,
        mem: MemCounts::default(),
        threads: 0,
        converged: 0,
        repetitions: 0,
        samples: 0,
    };
    let mut attempt = |fame: FameConfig| -> Result<FameReport, SimError> {
        let mut core = prepare_core(&cell_ctx, cell)?;
        let runner = FameRunner::new(fame);
        let warmup = trace.warm.time(|| runner.warm_only(&mut core))?;
        let report = trace
            .measure
            .time(|| runner.try_measure_restored(&mut core, warmup));
        trace.cycles += core.stats().cycles;
        trace.insts += ThreadId::ALL
            .iter()
            .map(|&t| core.stats().committed(t))
            .sum::<u64>();
        trace.mem.merge(MemCounts::of(&core));
        report
    };
    let first = attempt(cell_ctx.fame);
    let (report, status) = match first {
        Ok(report) if report.converged() => (Some(report), CellStatus::Ok),
        Err(e) if !e.is_retryable() => (None, CellStatus::Degraded),
        first => {
            let escalated = cell_ctx.fame.escalated(Experiments::RETRY_ESCALATION);
            match attempt(escalated) {
                Ok(report) if report.converged() => (Some(report), CellStatus::Recovered),
                Ok(report) => (Some(report), CellStatus::Degraded),
                Err(_) => (first.ok(), CellStatus::Degraded),
            }
        }
    };
    for m in report.iter().flat_map(|r| r.threads.iter().flatten()) {
        trace.threads += 1;
        trace.converged += u64::from(m.converged);
        if sampled {
            trace.samples += m.repetitions as u64;
        } else {
            trace.repetitions += m.repetitions as u64;
        }
    }
    trace.measured = Measured {
        report,
        status,
        error: None,
    };
    trace
}

/// Checks a traced cell against the untraced run's measurement of it:
/// the FAME report and the status must be equal (error causes are not
/// compared; the traced path keeps none).
pub fn check_trace(trace: &CellTrace, expected: &Measured, label: &str) -> Result<(), String> {
    if trace.measured.report == expected.report && trace.measured.status == expected.status {
        Ok(())
    } else {
        Err(format!("traced cell {label} differs from the untraced run"))
    }
}

/// Per-layer accumulators of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Workload iterations the accumulators cover.
    pub iterations: u64,
    /// Wall time of each traced iteration, seconds.
    pub traced_walls: Vec<f64>,
    /// Wall time of the untraced counterpart measured beside each, seconds.
    pub untraced_walls: Vec<f64>,
    core_measure: Span,
    fame_measure: Span,
    core_cycles: u64,
    core_insts: u64,
    mem: MemCounts,
    fame_warm: Span,
    fame_threads: u64,
    fame_converged: u64,
    fame_repetitions: u64,
    fame_samples: u64,
    /// Mean relative error of a sampled workload against its detailed
    /// reference, percent.
    pub sampled_err_pct: f64,
    /// Cells covered by the campaign event accounting.
    campaign_cells: u64,
    campaign_queue_wait_ms: f64,
    campaign_busy_ms: f64,
    campaign_util: Vec<f64>,
    campaign_straggler_ms: Vec<f64>,
    /// `cell_key` calls.
    pub cell_key: Span,
    /// `aggregate` calls.
    pub aggregate: Span,
    /// `ResultJournal::record_cell` calls.
    pub journal_record: Span,
    /// `ResultJournal::lookup_cell` calls.
    pub journal_lookup: Span,
    /// `ResultJournal::flush` calls.
    pub journal_flush: Span,
    /// `ResultJournal::resume` calls.
    pub journal_resume: Span,
    journal_bytes: u64,
    journal_cells: u64,
    /// Latencies of requests served from the cache, milliseconds.
    pub hit_req_ms: Vec<f64>,
    /// Latencies of requests that simulated, milliseconds.
    pub miss_req_ms: Vec<f64>,
    /// Server cache hit rate over the measured window.
    pub hit_rate: f64,
    /// Server cache evictions over the measured window.
    pub evictions: u64,
    /// `Response::to_line` calls.
    pub encode: Span,
    /// `Response::parse` calls.
    pub decode: Span,
    /// Timed `Chip::run_cycles` measurement calls, isolated regime.
    pub chip_isolated: Span,
    /// Simulated chip cycles behind [`Layers::chip_isolated`].
    pub chip_isolated_cycles: u64,
    /// Timed `Chip::run_cycles` measurement calls, noisy regime.
    pub chip_noisy: Span,
    /// Simulated chip cycles behind [`Layers::chip_noisy`].
    pub chip_noisy_cycles: u64,
    /// Timed `Chip::run_cycles` warm-up calls.
    pub chip_warm: Span,
    chip_l2: [u64; 2],
    /// Export (CSV/JSON writer) calls.
    pub export: Span,
}

impl Layers {
    /// Folds in one traced cell.
    pub fn add_cell(&mut self, t: &CellTrace) {
        self.fame_warm.merge(t.warm);
        self.fame_measure.merge(t.measure);
        self.core_measure.merge(t.measure);
        self.core_cycles += t.cycles;
        self.core_insts += t.insts;
        self.mem.merge(t.mem);
        self.fame_threads += t.threads;
        self.fame_converged += t.converged;
        self.fame_repetitions += t.repetitions;
        self.fame_samples += t.samples;
    }

    /// Folds in the measurement phase of a chip: both cores' statistics
    /// and memory counts, with the measurement time as core time.
    pub fn add_chip(&mut self, chip: &p5_core::Chip, measure: Duration) {
        self.core_measure.add(measure);
        for c in p5_core::CoreId::ALL {
            let stats = chip.core(c).stats();
            self.core_cycles += stats.cycles;
            self.core_insts += ThreadId::ALL
                .iter()
                .map(|&t| stats.committed(t))
                .sum::<u64>();
        }
        let mem = MemCounts::of_chip(chip);
        self.chip_l2[0] += mem.l2[0];
        self.chip_l2[1] += mem.l2[1];
        self.mem.merge(mem);
    }

    /// Folds in one campaign's cell events: per-cell claim and finish
    /// offsets from the campaign start, the campaign wall time and the
    /// worker count.
    pub fn add_campaign(&mut self, starts: &[f64], ends: &[f64], wall_ms: f64, workers: usize) {
        let busy: f64 = starts.iter().zip(ends).map(|(s, e)| e - s).sum();
        self.campaign_cells += starts.len() as u64;
        self.campaign_queue_wait_ms += starts.iter().sum::<f64>();
        self.campaign_busy_ms += busy;
        self.campaign_util
            .push(crate::stats::ratio(busy, workers as f64 * wall_ms));
        let last_claim = starts.iter().copied().fold(0.0, f64::max);
        self.campaign_straggler_ms.push(wall_ms - last_claim);
    }

    /// Journals `cells` into a fresh journal under `dir`, flushes,
    /// resumes it and looks every cell up again, timing each call; the
    /// replayed measurements must equal the recorded ones.
    pub fn journal_round_trip(
        &mut self,
        dir: &Path,
        cells: &[(CellKey, &Measured)],
    ) -> Result<(), String> {
        let io = |e: std::io::Error| format!("journal round trip in {}: {e}", dir.display());
        let journal = ResultJournal::create(dir).map_err(io)?;
        for (key, measured) in cells {
            self.journal_record
                .time(|| journal.record_cell(*key, measured));
        }
        self.journal_flush.time(|| journal.flush());
        drop(journal);
        let (journal, _) = self
            .journal_resume
            .time(|| ResultJournal::resume(dir))
            .map_err(io)?;
        for (key, measured) in cells {
            let replayed = self.journal_lookup.time(|| journal.lookup_cell(*key));
            let same = replayed.is_some_and(|r| {
                measured_to_json(&r).to_string() == measured_to_json(measured).to_string()
            });
            if !same {
                return Err(format!(
                    "journal replay of cell {key} differs from its record"
                ));
            }
        }
        self.journal_bytes += std::fs::metadata(journal.path()).map_err(io)?.len();
        self.journal_cells += cells.len() as u64;
        Ok(())
    }

    /// Encodes every outcome as a served `cell` line and decodes it
    /// again, timing both; the decoded measurement must equal the
    /// original.
    pub fn wire_round_trip(&mut self, outcomes: &[CellOutcome]) -> Result<(), String> {
        for o in outcomes {
            let response = Response::Cell {
                id: o.id,
                label: o.label.clone(),
                cached: o.replayed,
                measured: o.measured.clone(),
            };
            let line = self.encode.time(|| response.to_line());
            let decoded = self.decode.time(|| Response::parse(line.trim_end()))?;
            let Response::Cell { measured, .. } = decoded else {
                return Err(format!("cell {} decoded as another response kind", o.id));
            };
            if measured_to_json(&measured).to_string() != measured_to_json(&o.measured).to_string()
            {
                return Err(format!("wire round trip of cell {} is not lossless", o.id));
            }
        }
        Ok(())
    }

    /// Every per-layer metric, per workload iteration where it is a
    /// total.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        use crate::stats::{median, ratio, tail};
        const MS: f64 = 1e6;
        const US: f64 = 1e3;
        let iters = self.iterations.max(1) as f64;
        let per_iter = |x: f64| x / iters;
        let campaign_mean = |total_ms: f64| ratio(total_ms, self.campaign_cells as f64);
        let traced = median(&self.traced_walls);
        let untraced = median(&self.untraced_walls);
        let fame_measure_ms = self.fame_measure.total(MS);
        let fame_warm_ms = self.fame_warm.total(MS);
        vec![
            Metric::new(
                "core.measure_ns_per_cycle",
                ratio(self.core_measure.total(1.0), self.core_cycles as f64),
                "ns",
            ),
            Metric::new("core.cycles", per_iter(self.core_cycles as f64), "cycles"),
            Metric::new("core.insts", per_iter(self.core_insts as f64), "count"),
            Metric::new(
                "mem.l1_accesses",
                per_iter((self.mem.l1[0] + self.mem.l1[1]) as f64),
                "count",
            ),
            Metric::new(
                "mem.l1_miss_rate",
                MemCounts::miss_rate(self.mem.l1),
                "ratio",
            ),
            Metric::new(
                "mem.l2_miss_rate",
                MemCounts::miss_rate(self.mem.l2),
                "ratio",
            ),
            Metric::new(
                "mem.l3_miss_rate",
                MemCounts::miss_rate(self.mem.l3),
                "ratio",
            ),
            Metric::new(
                "mem.tlb_miss_rate",
                MemCounts::miss_rate(self.mem.tlb),
                "ratio",
            ),
            Metric::new(
                "mem.mem_accesses",
                per_iter(self.mem.mem_accesses as f64),
                "count",
            ),
            Metric::new("fame.warm_ms", per_iter(fame_warm_ms), "ms"),
            Metric::new("fame.measure_ms", per_iter(fame_measure_ms), "ms"),
            Metric::new(
                "fame.warm_share",
                ratio(fame_warm_ms, fame_warm_ms + fame_measure_ms),
                "ratio",
            ),
            Metric::new(
                "fame.repetitions",
                per_iter(self.fame_repetitions as f64),
                "count",
            ),
            Metric::new("fame.samples", per_iter(self.fame_samples as f64), "count"),
            Metric::new(
                "fame.converged_frac",
                ratio(self.fame_converged as f64, self.fame_threads as f64),
                "ratio",
            ),
            Metric::new("fame.sampled_err_pct", self.sampled_err_pct, "%"),
            Metric::new(
                "campaign.queue_wait_ms",
                campaign_mean(self.campaign_queue_wait_ms),
                "ms",
            ),
            Metric::new(
                "campaign.cell_busy_ms",
                campaign_mean(self.campaign_busy_ms),
                "ms",
            ),
            Metric::new("campaign.worker_util", median(&self.campaign_util), "ratio"),
            Metric::new(
                "campaign.straggler_ms",
                median(&self.campaign_straggler_ms),
                "ms",
            ),
            Metric::new("campaign.cell_key_us", self.cell_key.mean(US), "us"),
            Metric::new("campaign.aggregate_ms", self.aggregate.mean(MS), "ms"),
            Metric::new("journal.record_us", self.journal_record.mean(US), "us"),
            Metric::new("journal.lookup_us", self.journal_lookup.mean(US), "us"),
            Metric::new("journal.flush_ms", self.journal_flush.mean(MS), "ms"),
            Metric::new("journal.resume_ms", self.journal_resume.mean(MS), "ms"),
            Metric::new(
                "journal.bytes_per_cell",
                ratio(self.journal_bytes as f64, self.journal_cells as f64),
                "bytes",
            ),
            Metric::new("serve.hit_req_p50_ms", median(&self.hit_req_ms), "ms"),
            Metric::new("serve.hit_req_tail_ms", tail(&self.hit_req_ms).value, "ms"),
            Metric::new("serve.miss_req_p50_ms", median(&self.miss_req_ms), "ms"),
            Metric::new(
                "serve.miss_req_tail_ms",
                tail(&self.miss_req_ms).value,
                "ms",
            ),
            Metric::new("serve.hit_rate", self.hit_rate, "ratio"),
            Metric::new("serve.evictions", self.evictions as f64, "count"),
            Metric::new("serve.encode_us", self.encode.mean(US), "us"),
            Metric::new("serve.decode_us", self.decode.mean(US), "us"),
            Metric::new(
                "chip.isolated_ns_per_cycle",
                ratio(
                    self.chip_isolated.total(1.0),
                    self.chip_isolated_cycles as f64,
                ),
                "ns",
            ),
            Metric::new(
                "chip.noisy_ns_per_cycle",
                ratio(self.chip_noisy.total(1.0), self.chip_noisy_cycles as f64),
                "ns",
            ),
            Metric::new("chip.warm_ms", per_iter(self.chip_warm.total(MS)), "ms"),
            Metric::new(
                "chip.measure_ms",
                per_iter(self.chip_isolated.total(MS) + self.chip_noisy.total(MS)),
                "ms",
            ),
            Metric::new(
                "chip.l2_miss_rate",
                MemCounts::miss_rate(self.chip_l2),
                "ratio",
            ),
            Metric::new("export.ms", per_iter(self.export.total(MS)), "ms"),
            Metric::new("trace.wall_s", traced, "s"),
            Metric::new(
                "trace.overhead_pct",
                100.0 * (ratio(traced, untraced) - 1.0),
                "%",
            ),
        ]
    }
}
