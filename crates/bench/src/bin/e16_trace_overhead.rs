//! E16 — tracing overhead: disabled recording must be free.
//!
//! The observability layer (`mercurial-trace`) threads a `Recorder`
//! through the fleet simulator, the screeners, and the closed-loop
//! driver. The deal that makes this acceptable in the hot path is that a
//! *disabled* recorder costs one branch per call site — no allocation, no
//! formatting. This experiment prices that deal at paper scale: the
//! whole-window simulation untraced, with a disabled recorder, and with
//! recording on, plus the closed loop off vs on, and writes the baseline
//! to `BENCH_trace.json`.
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e16_trace_overhead [-- --smoke]
//! ```
//!
//! The closed loop is timed untraced against trace + watch + audit all
//! on, interleaved best-of-15, and gated: observability on must cost
//! under 10% of the untraced loop.
//!
//! `--smoke` skips the timing (meaningless on shared CI machines) and
//! instead checks the tracing correctness contracts at demo scale:
//! byte-identical JSONL across 1/2/8 workers, a Chrome export that parses
//! as JSON with balanced B/E span pairs, an incident timeline showing
//! a full onset → signal → quarantine → confirm story, and machine spans
//! that only add `screen.machine` lines to the default trace
//! (`make trace-smoke`).

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::fault::CoreUid;
use mercurial::trace::{incident_timeline, EventKind, Recorder, TraceFlags};
use mercurial::{FleetExperiment, Scenario};
use mercurial_bench::{best_of, interleaved_best_of, timed};
use mercurial_fleet::{SignalLog, SimSummary};
use mercurial_prof::Prof;

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
    } else {
        run_full();
    }
}

// ------------------------------------------------------------- smoke mode

fn traced_demo(seed: u64) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
    s.trace.enabled = true;
    s
}

fn run_smoke() {
    mercurial_bench::header("E16 — tracing contracts (smoke)");
    let base = traced_demo(0x0e16);

    // 1. Determinism parity: the trace is a pure function of the
    //    scenario, not of the worker count.
    let traces: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&p| {
            let mut s = base.clone();
            s.sim.parallelism = p;
            ClosedLoopDriver::execute(&s).trace.to_jsonl()
        })
        .collect();
    assert!(!traces[0].is_empty(), "trace must record something");
    assert!(
        traces.iter().all(|t| *t == traces[0]),
        "JSONL trace differs across 1/2/8 workers"
    );
    println!(
        "parity: JSONL byte-identical at 1/2/8 workers ({} bytes): yes",
        traces[0].len()
    );

    // 2. The Chrome export is valid trace-event JSON with paired spans.
    let out = ClosedLoopDriver::execute(&base);
    let chrome = out.trace.to_chrome_trace();
    let doc: serde::Value = serde_json::from_str(&chrome).expect("chrome export parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .expect("traceEvents array");
    let count_ph = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(serde::Value::as_str) == Some(ph))
            .count()
    };
    let (b, e) = (count_ph("B"), count_ph("E"));
    assert!(b > 0 && b == e, "chrome spans unbalanced: {b} B vs {e} E");
    println!(
        "chrome: valid JSON, {} events, {b} balanced span pairs",
        events.len()
    );

    // 3. The timeline reconstructs a full incident for some injected core.
    let timeline = incident_timeline(&out.trace, &|id| CoreUid::from_u64(id).to_string());
    let full_story = timeline.lines().any(|l| {
        l.contains("onset@")
            && l.contains("signal@")
            && l.contains("quarantine@")
            && l.contains("confirm@")
    });
    assert!(
        full_story,
        "no full onset→signal→quarantine→confirm story:\n{timeline}"
    );
    println!("timeline: full onset → signal → quarantine → confirm story present");

    // 4. Machine spans force the per-machine screening walk; every other
    //    traced run takes the sparse plan. The walk must record exactly
    //    the default trace plus `screen.machine` spans, and each offline
    //    sweep's span must close when its last machine's drain does.
    let default = ClosedLoopDriver::execute(&traced_demo(7)).trace.to_jsonl();
    let mut s = traced_demo(7);
    s.trace.machine_spans = true;
    let walk = ClosedLoopDriver::execute(&s).trace;
    let mut drained = f64::NEG_INFINITY;
    for e in &walk.events {
        match (e.name, e.kind) {
            ("screen.offline", EventKind::Begin) => drained = f64::NEG_INFINITY,
            ("screen.machine", EventKind::End) => drained = drained.max(e.hour),
            ("screen.offline", EventKind::End) => assert_eq!(
                e.hour, drained,
                "offline span must end with its last machine's drain"
            ),
            _ => {}
        }
    }
    let walk = walk.to_jsonl();
    let filtered: String = walk
        .lines()
        .filter(|l| !l.contains("\"n\":\"screen.machine\""))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert!(
        filtered == default,
        "machine-span trace minus screen.machine lines differs from the default trace"
    );
    println!(
        "machine spans: {} lines minus screen.machine = the default {} lines, byte for byte",
        walk.lines().count(),
        default.lines().count()
    );
    println!("\nE16 smoke: all tracing contracts hold");
}

// -------------------------------------------------------------- full mode

fn run_full() {
    let scenario = mercurial_bench::load_paper_scenario(0x0e16);
    mercurial_bench::header(&format!(
        "E16 — tracing overhead   [{}: {} machines, {} months]",
        scenario.name, scenario.fleet.machines, scenario.sim.months
    ));
    let reps = 3;
    // The bench's own phase breakdown, embedded in the BenchMeta
    // envelope: wall clock per measured section, write-only as always.
    let prof = Prof::enabled();

    // Whole-window simulation, three ways. `FleetSim::run` is the
    // untraced baseline (its serial path with a disabled recorder is the
    // pre-instrumentation loop, byte for byte).
    let exp = FleetExperiment::build(&scenario);
    let sim = exp.sim();
    let step_all = |rec: &mut Recorder| {
        let mut state = sim.begin();
        let mut log = SignalLog::new();
        let mut summary = SimSummary::default();
        sim.step_epochs(&mut state, u32::MAX, &mut log, &mut summary, rec);
        log.sort_by_time();
        (log, summary)
    };
    let untraced = prof.scope("sim.untraced", || {
        best_of(reps, || {
            let (log, _) = sim.run();
            assert!(!log.is_empty());
        })
    });
    let disabled = prof.scope("sim.disabled", || {
        best_of(reps, || {
            let (log, _) = step_all(&mut Recorder::disabled());
            assert!(!log.is_empty());
        })
    });
    let mut trace_events = 0usize;
    let enabled = prof.scope("sim.enabled", || {
        best_of(reps, || {
            let mut rec = Recorder::with_flags(TraceFlags::enabled());
            let (log, _) = step_all(&mut rec);
            assert!(!log.is_empty());
            trace_events = rec.event_count();
        })
    });
    let disabled_pct = 100.0 * (disabled / untraced - 1.0);
    let enabled_pct = 100.0 * (enabled / untraced - 1.0);
    println!("sim, untraced baseline:   {untraced:>8.3} s   (best of {reps})");
    println!("sim, recorder disabled:   {disabled:>8.3} s   ({disabled_pct:+.2}%)");
    println!(
        "sim, recorder enabled:    {enabled:>8.3} s   ({enabled_pct:+.2}%, {trace_events} events)"
    );

    // The closed loop end to end, untraced vs trace + watch + audit all
    // on. The two arms take turns in alternating order, so host drift
    // hits them alike; best-of is the estimator.
    let mut off_s = scenario.clone();
    off_s.closed_loop.feedback = true;
    let mut on_s = off_s.clone();
    on_s.trace.enabled = true;
    on_s.watch.enabled = true;
    on_s.audit.enabled = true;
    let loop_reps = 15;
    let mut on = None;
    let [loop_off, loop_on] = interleaved_best_of(
        loop_reps,
        [
            &mut || {
                prof.scope("loop.untraced", || {
                    let (secs, off) = timed(|| ClosedLoopDriver::execute(&off_s));
                    assert!(off.trace.is_empty());
                    secs
                })
            },
            &mut || {
                prof.scope("loop.observed", || {
                    let (secs, out) = timed(|| ClosedLoopDriver::execute(&on_s));
                    on = Some(out);
                    secs
                })
            },
        ],
    );
    let on = on.expect("at least one round");
    let jsonl = on.trace.to_jsonl();
    let loop_pct = 100.0 * (loop_on / loop_off - 1.0);
    println!("closed loop, untraced:    {loop_off:>8.3} s   (best of {loop_reps}, interleaved)");
    println!(
        "closed loop, trace+watch+audit: {loop_on:>8.3} s   ({loop_pct:+.2}%, {} events, {} B JSONL)",
        on.trace.events.len(),
        jsonl.len()
    );

    // Acceptance: a disabled recorder costs < 2% of the untraced sim.
    assert!(
        disabled_pct < 2.0,
        "acceptance: disabled tracing overhead {disabled_pct:.2}% must stay under 2%"
    );
    // Acceptance: trace + watch + audit on cost < 10% of the untraced loop.
    assert!(
        loop_pct < 10.0,
        "acceptance: closed-loop observability overhead {loop_pct:.2}% must stay under 10%"
    );

    let body = format!(
        "\"scenario\": \"{}\",\n  \"machines\": {},\n  \"months\": {},\n  \"sim_untraced_secs\": {untraced:.4},\n  \"sim_disabled_secs\": {disabled:.4},\n  \"sim_enabled_secs\": {enabled:.4},\n  \"sim_disabled_overhead_pct\": {disabled_pct:.3},\n  \"sim_enabled_overhead_pct\": {enabled_pct:.3},\n  \"closed_loop_off_secs\": {loop_off:.4},\n  \"closed_loop_on_secs\": {loop_on:.4},\n  \"closed_loop_on_overhead_pct\": {loop_pct:.3},\n  \"closed_loop_reps\": {loop_reps},\n  \"closed_loop_on_layers\": \"trace+watch+audit\",\n  \"sim_trace_events\": {trace_events},\n  \"closed_loop_trace_events\": {},\n  \"closed_loop_jsonl_bytes\": {}",
        scenario.name,
        scenario.fleet.machines,
        scenario.sim.months,
        on.trace.events.len(),
        jsonl.len()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    mercurial_bench::write_bench_json(
        path,
        "e16_trace_overhead",
        reps as u64,
        &prof.finish(),
        &body,
    );
    println!("\nbaseline written to BENCH_trace.json");
}
