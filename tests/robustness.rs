//! End-to-end robustness contract: the watchdog names the wedged
//! resource, seeded fault plans always end in a bounded outcome with the
//! pipeline conservation laws intact, and a degraded experiment cell
//! yields an annotated partial result instead of a hang or a panic.

use p5repro::core::{CoreConfig, SimError, SmtCore, StuckResource};
use p5repro::experiments::campaign::{run_isolated_cell, CampaignSpec, CellSpec};
use p5repro::experiments::{Experiments, Measured};
use p5repro::fame::FameConfig;
use p5repro::fault::{check_invariants, FaultInjector, FaultPlan};
use p5repro::isa::{
    BranchBehavior, DataKind, Op, Priority, Program, Reg, StaticInst, StreamSpec, ThreadId,
};
use p5repro::os::{Kernel, KernelMode};
use p5repro::workloads::mpi::ImbalancedApp;

/// A pure-ALU loop: always progresses, converges quickly.
fn cpu_program(iters: u64) -> Program {
    let mut b = Program::builder("cpu");
    for i in 0..10 {
        b.push(StaticInst::new(Op::IntAlu).dst(Reg::new(32 + i)));
    }
    b.iterations(iters);
    b.build().unwrap()
}

/// A serial pointer chase over `footprint` bytes: every iteration is an
/// L2-or-worse miss, so it cannot progress at all on a core whose LMQ
/// has zero entries.
fn chase_program(footprint: u64) -> Program {
    let ptr = Reg::new(1);
    let mut b = Program::builder("chase");
    let s = b.stream(StreamSpec::pointer_chase(footprint));
    b.push(
        StaticInst::new(Op::Load {
            stream: s,
            kind: DataKind::Int,
        })
        .dst(ptr)
        .src1(ptr),
    );
    b.push(StaticInst::new(Op::Branch(BranchBehavior::LoopBack)));
    b.iterations(1_000);
    b.build().unwrap()
}

/// One single-thread cell through the campaign's per-cell flow and its
/// retry/escalation ladder.
fn measure_cell(ctx: &Experiments, program: Program) -> Measured {
    let spec = CampaignSpec::for_ctx(ctx, vec![CellSpec::single("cell", program)]);
    run_isolated_cell(ctx, &spec, 0, &spec.cells[0]).0
}

/// The canonical wedge: a legal-but-pathological zero-entry LMQ with an
/// armed watchdog.
fn wedged_config() -> CoreConfig {
    let mut cfg = CoreConfig::tiny_for_tests();
    cfg.lmq_entries = 0;
    cfg.watchdog_stall_cycles = 10_000;
    cfg.try_validate().expect("zero LMQ is a legal pathology");
    cfg
}

#[test]
fn watchdog_trips_on_wedged_config_and_names_the_lmq() {
    let mut core = SmtCore::new(wedged_config());
    core.load_program(ThreadId::T0, chase_program(256 * 1024));
    let err = core
        .try_run_until_repetitions([1, 0], 10_000_000)
        .expect_err("a memory-bound thread with no LMQ never progresses");
    let SimError::ForwardProgressStall { snapshot } = &err else {
        panic!("expected a forward-progress stall, got {err}");
    };
    assert_eq!(snapshot.culprit, StuckResource::LoadMissQueue);
    assert!(snapshot.stalled_for >= 10_000);
    // The rendered diagnostic names the resource for humans too.
    assert!(err.to_string().contains("lmq"), "diagnostic: {err}");
    assert!(
        core.cycle() < 100_000,
        "the watchdog must fire long before the budget: cycle {}",
        core.cycle()
    );
}

#[test]
fn kernel_try_run_cycles_surfaces_the_same_wedge() {
    let mut core = SmtCore::new(wedged_config());
    core.load_program(ThreadId::T1, chase_program(256 * 1024));
    let mut kernel = Kernel::new(core, KernelMode::Patched);
    // Timer chunks shorter than the watchdog window: the stall must
    // accumulate across kernel entries to be detected.
    kernel.set_timer_interval(2_500).unwrap();
    let err = kernel
        .try_run_cycles(10_000_000)
        .expect_err("the OS layer propagates the core's stall");
    assert!(err.to_string().contains("lmq"), "diagnostic: {err}");
}

#[test]
fn seeded_fault_plans_end_bounded_with_invariants_intact() {
    // Well beyond the required 20 plans; every one must end in a bounded,
    // typed outcome and leave the conservation laws intact.
    for seed in 1..=24u64 {
        let plan = FaultPlan::generate(seed, 30_000, 8);
        assert_eq!(
            plan.faults().len(),
            8,
            "seed {seed}: plan generation is total"
        );
        let mut cfg = CoreConfig::tiny_for_tests();
        cfg.watchdog_stall_cycles = 20_000;
        let mut core = SmtCore::new(cfg);
        core.load_program(ThreadId::T0, cpu_program(200));
        core.load_program(ThreadId::T1, chase_program(64 * 1024));
        match FaultInjector::new(plan).run(&mut core, [5, 3], 3_000_000) {
            Ok(_) => {}
            Err(SimError::InjectedFault { .. } | SimError::ForwardProgressStall { .. }) => {}
            Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
        }
        check_invariants(&core)
            .unwrap_or_else(|v| panic!("seed {seed}: invariant violations {v:?}"));
    }
}

#[test]
fn fault_plans_are_reproducible_from_their_seed() {
    for seed in [1u64, 7, 0xDEAD_BEEF, u64::MAX] {
        let a = FaultPlan::generate(seed, 50_000, 12);
        let b = FaultPlan::generate(seed, 50_000, 12);
        assert_eq!(a.faults(), b.faults(), "seed {seed}");
    }
}

#[test]
fn healthy_and_wedged_cells_coexist_in_a_partial_report() {
    let ctx = Experiments::with_configs(wedged_config(), FameConfig::quick());

    // A pure-ALU cell never touches the LMQ: it measures normally even
    // on the pathological core.
    let healthy = measure_cell(&ctx, cpu_program(100));
    assert!(!healthy.is_degraded());
    assert!(healthy.ipc(ThreadId::T0).unwrap_or(0.0) > 0.0);
    assert_eq!(healthy.degradation("cpu"), None);

    // The memory-bound cell wedges; it degrades with an annotation that
    // names the saturated resource instead of hanging or panicking.
    let wedged = measure_cell(&ctx, chase_program(256 * 1024));
    assert!(wedged.is_degraded());
    let note = wedged
        .degradation("(chase)")
        .expect("degraded cells carry a note");
    assert_eq!(note.label, "(chase)");
    assert!(
        note.to_string().starts_with("(chase): "),
        "note renders label: cause — {note}"
    );
    assert!(note.cause.contains("lmq"), "note names the culprit: {note}");
}

#[test]
fn losing_the_baseline_cell_is_a_typed_total_loss() {
    // A core no cell can even be built on: every measurement (including
    // the (4,4) anchor the improvement comparison needs) is lost, so the
    // experiment reports a typed error instead of dividing by garbage.
    let mut core = CoreConfig::tiny_for_tests();
    core.gct_entries = 0;
    let ctx = Experiments::with_configs(core, FameConfig::quick());
    let err = p5repro::experiments::mpi::run_with(&ctx, ImbalancedApp::default())
        .expect_err("an invalid core yields no data at all");
    let msg = err.to_string();
    assert!(msg.starts_with("mpi: "), "error names the artifact: {msg}");
    assert!(msg.contains("(4,4)"), "error names the lost anchor: {msg}");
}

#[test]
fn escalated_retry_recovers_a_tight_budget() {
    let ctx = Experiments::with_configs(
        CoreConfig::tiny_for_tests(),
        FameConfig {
            min_repetitions: 40,
            max_cycles: 8_000,
            warmup: p5repro::fame::WarmupBudget::fixed(500),
            ..FameConfig::quick()
        },
    );
    // 8k cycles is too tight for 40 repetitions, but the one retry at
    // Experiments::RETRY_ESCALATION times the budget completes: the cell
    // recovers instead of degrading.
    let m = measure_cell(&ctx, cpu_program(10));
    assert!(!m.is_degraded(), "note: {:?}", m.degradation("cell"));
    assert!(m.ipc(ThreadId::T0).unwrap_or(0.0) > 0.0);
}

#[test]
fn decode_share_bound_survives_transient_faults() {
    use p5repro::fault::{check_decode_share_bound, FaultKind, ScheduledFault};

    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(ThreadId::T0, cpu_program(200));
    core.load_program(ThreadId::T1, cpu_program(200));
    let p0 = Priority::from_level(6).unwrap();
    let p1 = Priority::from_level(4).unwrap();
    core.set_priority(ThreadId::T0, p0);
    core.set_priority(ThreadId::T1, p1);
    let plan = FaultPlan::explicit(vec![
        ScheduledFault {
            at_cycle: 500,
            kind: FaultKind::CachePortBlock { cycles: 1_000 },
        },
        ScheduledFault {
            at_cycle: 2_500,
            kind: FaultKind::LmqSaturate { cycles: 800 },
        },
    ]);
    FaultInjector::new(plan)
        .run(&mut core, [5, 5], 5_000_000)
        .expect("transient faults complete");
    check_invariants(&core).expect("conservation laws hold");
    check_decode_share_bound(&core, p0, p1).expect("Equation 1 ledger holds");
}
