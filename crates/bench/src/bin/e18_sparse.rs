//! E18 — the event-driven sparse fleet core at fleet-study scale.
//!
//! Fleet studies only see mercurial cores at hundreds of thousands to
//! millions of machines (Dixit et al.; Hochschild et al. §3's "a few
//! mercurial cores per several thousand machines"), which makes healthy
//! machines the asymptote: almost every core the simulator pays for does
//! nothing. The sparse core (`SimEngine::Sparse`) schedules onset,
//! activation-edge, and deploy events on the `EventQueue` heap and the
//! screeners fold all-healthy machines into closed-form accounting, so
//! per-epoch work scales with *defective* state while staying bit-for-bit
//! identical to the dense walk. This experiment prices the claim: the
//! 20k-machine paper scenario before/after, and 1M machines × 36 months
//! against the acceptance budget — the time 20k took on the dense path
//! before the refactor (BENCH_watch.json).
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e18_sparse [-- --smoke]
//! ```
//!
//! `--smoke` skips absolute timings and checks the contracts instead:
//! dense/sparse bit-parity through the closed-loop driver (traced and
//! untraced, 1/2/8 workers), stepping-granularity invariance, and the
//! 1M-machine event accounting — zero per-epoch work on healthy machines,
//! wall clock within a self-calibrated budget (`make sparse-smoke`).

use std::time::Instant;

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::fleet::{SignalLog, SimEngine};
use mercurial::trace::Recorder;
use mercurial::{FleetExperiment, Scenario};

/// The 20k-machine dense-path closed-loop time before this refactor
/// (BENCH_watch.json `watch_off_secs`, same machine class): the
/// acceptance budget for the 1M-machine sparse run.
const DENSE_20K_BEFORE_SECS: f64 = 7.8201;

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
    } else {
        run_full();
    }
}

/// Feedback on, tracing and watch off: the configuration the ~8 s
/// BENCH_watch baseline was measured under.
fn closed_loop_scenario(base: &Scenario, engine: SimEngine) -> Scenario {
    let mut s = base.clone();
    s.closed_loop.feedback = true;
    s.trace.enabled = false;
    s.watch.enabled = false;
    s.sim.engine = engine;
    s
}

/// The fleet-study scenario: the paper config at 1,000,000 machines.
fn fleet_study_scenario(base: &Scenario) -> Scenario {
    let mut s = closed_loop_scenario(base, SimEngine::Sparse);
    s.name = "fleet-study-1m".into();
    s.fleet.machines = 1_000_000;
    s
}

// ------------------------------------------------------------- smoke mode

fn run_smoke() {
    let off = &mut Recorder::disabled();
    mercurial_bench::header("E18 — sparse fleet core contracts (smoke)");

    // 1. Traced driver parity: watch report, trace JSONL, signal log, and
    //    summary are bit-identical dense vs sparse at 1/2/8 workers.
    let mut traced = Scenario::demo(7);
    traced.closed_loop.feedback = true;
    traced.trace.enabled = true;
    traced.watch.enabled = true;
    traced.sim.engine = SimEngine::Dense;
    let reference = ClosedLoopDriver::execute(&traced);
    let ref_report = reference.watch.as_ref().expect("watch enabled").render();
    let ref_trace = reference.trace.to_jsonl();
    assert!(!reference.pipeline.detections.is_empty());
    for parallelism in [1usize, 2, 8] {
        let mut s = traced.clone();
        s.sim.engine = SimEngine::Sparse;
        s.sim.parallelism = parallelism;
        let out = ClosedLoopDriver::execute(&s);
        assert_eq!(
            out.watch.as_ref().expect("watch enabled").render(),
            ref_report,
            "watch report diverges at {parallelism} workers"
        );
        assert_eq!(out.trace.to_jsonl(), ref_trace);
        assert_eq!(out.pipeline.signals.all(), reference.pipeline.signals.all());
        assert_eq!(out.pipeline.sim_summary, reference.pipeline.sim_summary);
    }
    println!("parity: traced closed loop identical dense vs sparse at 1/2/8 workers");

    // 2. Untraced driver parity — the screeners' closed-form fast plans.
    let untraced_ref = ClosedLoopDriver::execute(&closed_loop_scenario(&Scenario::demo(11), {
        SimEngine::Dense
    }));
    for parallelism in [1usize, 8] {
        let mut s = closed_loop_scenario(&Scenario::demo(11), SimEngine::Sparse);
        s.sim.parallelism = parallelism;
        let out = ClosedLoopDriver::execute(&s);
        assert_eq!(out.pipeline.detections, untraced_ref.pipeline.detections);
        assert_eq!(out.pipeline.sim_summary, untraced_ref.pipeline.sim_summary);
        assert_eq!(
            out.pipeline.burnin_stats,
            untraced_ref.pipeline.burnin_stats
        );
        assert_eq!(
            out.pipeline.offline_stats,
            untraced_ref.pipeline.offline_stats
        );
        assert_eq!(
            out.pipeline.online_stats,
            untraced_ref.pipeline.online_stats
        );
    }
    println!("parity: untraced closed loop (screener fast plans) identical at 1/8 workers");

    // 3. Stepping-granularity invariance at the sim layer.
    let mut sim_s = Scenario::demo(21);
    sim_s.sim.parallelism = 2;
    sim_s.sim.engine = SimEngine::Dense;
    let dense_exp = FleetExperiment::build(&sim_s);
    let (ref_log, ref_sum) = dense_exp.sim().run();
    for granularity in [1u32, 5, u32::MAX] {
        let mut s = sim_s.clone();
        s.sim.engine = SimEngine::Sparse;
        let sim = FleetExperiment::build(&s).sim();
        let mut state = sim.begin();
        let mut log = SignalLog::new();
        let mut summary = Default::default();
        while !state.is_done() {
            sim.step_epochs(&mut state, granularity, &mut log, &mut summary, off);
        }
        log.sort_by_time();
        assert_eq!(log.all(), ref_log.all(), "log diverges at {granularity}");
        assert_eq!(summary, ref_sum, "summary diverges at {granularity}");
    }
    println!("parity: sparse == dense at stepping granularities 1/5/MAX");

    // 4. The fleet-study smoke: 1M machines × 36 months. Healthy machines
    //    must cost zero per-epoch work (event accounting), and the closed
    //    loop must finish within the budget — the larger of the recorded
    //    pre-refactor 20k dense time and 4× the in-process 20k dense time
    //    (so a slow CI machine scales the budget with itself).
    let paper = mercurial_bench::load_paper_scenario(0x0e18);
    let t = Instant::now();
    let dense_20k = closed_loop_scenario(&paper, SimEngine::Dense);
    let out_20k = ClosedLoopDriver::execute(&dense_20k);
    let dense_20k_secs = t.elapsed().as_secs_f64();
    assert!(!out_20k.pipeline.detections.is_empty());
    println!(
        "calibrate: dense 20k closed loop {:.2} s ({} detections)",
        dense_20k_secs,
        out_20k.pipeline.detections.len()
    );

    let study = fleet_study_scenario(&paper);
    let t = Instant::now();
    let experiment = FleetExperiment::build(&study);
    let build_secs = t.elapsed().as_secs_f64();
    let mercurial_cores = experiment.population().count() as u64;

    // Event accounting on the raw sim: the clock touches defective cores
    // only — deploy/onset events bounded by a few per mercurial core,
    // live-core epochs bounded by mercurial cores × epochs, healthy cores
    // contributing exactly zero.
    let sim = experiment.sim();
    let mut state = sim.begin();
    let mut log = SignalLog::new();
    let mut summary = Default::default();
    let t = Instant::now();
    while !state.is_done() {
        sim.step_epochs(&mut state, u32::MAX, &mut log, &mut summary, off);
    }
    let sim_secs = t.elapsed().as_secs_f64();
    let clock = state.clock_stats();
    let epochs = state.total_epochs() as u64;
    let core_epochs = sim.topology().total_cores() * epochs;
    assert!(
        clock.events_processed <= 8 * mercurial_cores,
        "clock processed {} events for {mercurial_cores} mercurial cores",
        clock.events_processed
    );
    assert!(
        clock.live_core_epochs <= mercurial_cores * epochs,
        "live-core epochs exceed the defective population"
    );
    println!(
        "accounting: {} machines, {mercurial_cores} mercurial cores, {} clock events, \
         {} live-core epochs ({:.8}% of {core_epochs} core-epochs), sim {sim_secs:.2} s",
        study.fleet.machines,
        clock.events_processed,
        clock.live_core_epochs,
        100.0 * clock.live_core_epochs as f64 / core_epochs as f64,
    );

    let t = Instant::now();
    let out_1m = ClosedLoopDriver::execute_on(&study, &experiment);
    let sparse_1m_secs = t.elapsed().as_secs_f64();
    let budget = DENSE_20K_BEFORE_SECS.max(4.0 * dense_20k_secs);
    println!(
        "budget: sparse 1M closed loop {sparse_1m_secs:.2} s (build {build_secs:.2} s, \
         {} detections) vs budget {budget:.2} s",
        out_1m.pipeline.detections.len()
    );
    assert!(
        sparse_1m_secs <= budget,
        "acceptance: 1M x 36mo took {sparse_1m_secs:.2} s, budget {budget:.2} s"
    );
    assert!(!out_1m.pipeline.detections.is_empty());
    println!("\nE18 smoke: all sparse-core contracts hold");
}

// -------------------------------------------------------------- full mode

fn run_full() {
    let off = &mut Recorder::disabled();
    let paper = mercurial_bench::load_paper_scenario(0x0e18);
    mercurial_bench::header(&format!(
        "E18 — sparse fleet core   [{}: {} machines, {} months]",
        paper.name, paper.fleet.machines, paper.sim.months
    ));

    // Interleave the 20k arms (dense, sparse, dense, …) so thermal drift
    // cannot masquerade as engine cost; best of `reps` each.
    let reps = 3;
    let mut dense_20k = f64::INFINITY;
    let mut sparse_20k = f64::INFINITY;
    let mut detections_20k = (0usize, 0usize);
    let prof = mercurial_prof::Prof::enabled();
    for _ in 0..reps {
        let t = Instant::now();
        let d = prof.scope("loop.dense_20k", || {
            ClosedLoopDriver::execute(&closed_loop_scenario(&paper, SimEngine::Dense))
        });
        dense_20k = dense_20k.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let s = prof.scope("loop.sparse_20k", || {
            ClosedLoopDriver::execute(&closed_loop_scenario(&paper, SimEngine::Sparse))
        });
        sparse_20k = sparse_20k.min(t.elapsed().as_secs_f64());
        assert_eq!(
            d.pipeline.detections, s.pipeline.detections,
            "engines disagree at 20k"
        );
        detections_20k = (d.pipeline.detections.len(), s.pipeline.detections.len());
    }
    println!("closed loop 20k, dense (was {DENSE_20K_BEFORE_SECS:.2} s pre-refactor):");
    println!(
        "  dense:  {dense_20k:>8.3} s   ({} detections)",
        detections_20k.0
    );
    println!(
        "  sparse: {sparse_20k:>8.3} s   ({} detections)",
        detections_20k.1
    );

    // The fleet-study arm: 1M machines × 36 months, sparse, once.
    let study = fleet_study_scenario(&paper);
    let t = Instant::now();
    let experiment = prof.scope("study.build_1m", || FleetExperiment::build(&study));
    let build_1m = t.elapsed().as_secs_f64();
    let mercurial_cores = experiment.population().count() as u64;

    let sim = experiment.sim();
    let mut state = sim.begin();
    let mut log = SignalLog::new();
    let mut summary = Default::default();
    let t = Instant::now();
    {
        let _p = prof.span("study.sim_1m");
        while !state.is_done() {
            sim.step_epochs(&mut state, u32::MAX, &mut log, &mut summary, off);
        }
    }
    let sim_1m = t.elapsed().as_secs_f64();
    let clock = state.clock_stats();
    let epochs = state.total_epochs();

    let t = Instant::now();
    let out_1m = prof.scope("study.closed_loop_1m", || {
        ClosedLoopDriver::execute_on(&study, &experiment)
    });
    let sparse_1m = t.elapsed().as_secs_f64();
    println!("fleet study 1M x {} months, sparse:", study.sim.months);
    println!("  build:       {build_1m:>8.3} s   ({mercurial_cores} mercurial cores)");
    println!(
        "  sim only:    {sim_1m:>8.3} s   ({} clock events, {} live-core epochs)",
        clock.events_processed, clock.live_core_epochs
    );
    println!(
        "  closed loop: {sparse_1m:>8.3} s   ({} detections)",
        out_1m.pipeline.detections.len()
    );

    // Acceptance: 1M × 36 months within the pre-refactor 20k dense time.
    assert!(
        sparse_1m <= DENSE_20K_BEFORE_SECS,
        "acceptance: 1M x 36mo took {sparse_1m:.2} s, budget {DENSE_20K_BEFORE_SECS:.2} s"
    );

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"dense_20k_before_secs\": {DENSE_20K_BEFORE_SECS},\n  \"dense_20k_secs\": {dense_20k:.4},\n  \"sparse_20k_secs\": {sparse_20k:.4},\n  \"study_machines\": {},\n  \"sparse_1m_build_secs\": {build_1m:.4},\n  \"sparse_1m_sim_secs\": {sim_1m:.4},\n  \"sparse_1m_closed_loop_secs\": {sparse_1m:.4},\n  \"mercurial_cores_1m\": {mercurial_cores},\n  \"clock_events_1m\": {},\n  \"live_core_epochs_1m\": {},\n  \"epochs\": {epochs}",
        paper.name,
        paper.fleet.machines,
        paper.sim.months,
        study.fleet.machines,
        clock.events_processed,
        clock.live_core_epochs,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sparse.json");
    mercurial_bench::write_bench_json(path, "e18_sparse", reps as u64, &prof.finish(), &body);
    println!("\nbaseline written to BENCH_sparse.json");
}
