//! E20 legacy pin: with the scenario `workloads` block absent (its
//! default), the workload-layer refactor must not move a single bit of
//! any pre-existing output. The digests below were captured on the
//! pre-refactor tree (PR 7 head) and the refactored code must keep
//! reproducing them exactly — open loop, closed loop, traced and
//! untraced, dense and sparse.
//!
//! The audit-on and workloads-on pins below were captured before the
//! traced/untraced method pairs were folded into single recorder-taking
//! methods, and before the open loop's epoch-boundary bookkeeping was
//! shared with the aggregator: they hold those paths to the same bytes.

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::corpus::hash::fnv1a64;
use mercurial::fleet::SimEngine;
use mercurial::mitigation::MitigationPolicy;
use mercurial::scenario::ClassPolicy;
use mercurial::Scenario;

fn scenario(seed: u64, feedback: bool, engine: SimEngine) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = feedback;
    s.sim.engine = engine;
    s.trace.enabled = true;
    s.watch.enabled = true;
    s
}

struct Digest {
    corruptions: u64,
    signals: usize,
    detections: usize,
    series_csv: u64,
    trace_jsonl: u64,
    watch_render: u64,
}

/// The seed-7 demo with the decision-audit layer on.
fn audited(feedback: bool) -> Scenario {
    let mut s = scenario(7, feedback, SimEngine::Sparse);
    s.audit.enabled = true;
    s
}

/// The seed-7 demo with the workload layer on: diurnal traffic, one
/// starting policy, adaptation armed in the closed loop.
fn with_workloads(feedback: bool) -> Scenario {
    let mut s = scenario(7, feedback, SimEngine::Sparse);
    s.workloads.enabled = true;
    s.workloads.policies = vec![ClassPolicy {
        class: "database".to_string(),
        policy: MitigationPolicy::E2eChecksum,
    }];
    s.workloads.adapt = feedback;
    s
}

/// Runs `s` and asserts its digest equals `want`.
fn pin(name: &str, s: &Scenario, want: &Digest) {
    let out = ClosedLoopDriver::execute(s);
    let watch = out.watch.as_ref().expect("watch enabled").render();
    let got = Digest {
        corruptions: out.pipeline.sim_summary.corruptions,
        signals: out.pipeline.signals.all().len(),
        detections: out.pipeline.detections.len(),
        series_csv: fnv1a64(out.series.to_csv().as_bytes()),
        trace_jsonl: fnv1a64(out.trace.to_jsonl().as_bytes()),
        watch_render: fnv1a64(watch.as_bytes()),
    };
    eprintln!(
        "{name}: corruptions={} signals={} detections={} series_csv=0x{:016x} trace_jsonl=0x{:016x} watch_render=0x{:016x}",
        got.corruptions, got.signals, got.detections, got.series_csv, got.trace_jsonl, got.watch_render
    );
    assert_eq!(got.corruptions, want.corruptions, "{name}: corruptions");
    assert_eq!(got.signals, want.signals, "{name}: signal count");
    assert_eq!(got.detections, want.detections, "{name}: detections");
    assert_eq!(got.series_csv, want.series_csv, "{name}: series CSV bytes");
    assert_eq!(
        got.trace_jsonl, want.trace_jsonl,
        "{name}: trace JSONL bytes"
    );
    assert_eq!(got.watch_render, want.watch_render, "{name}: watch render");
}

#[test]
fn legacy_closed_loop_is_bit_identical_to_pre_refactor() {
    let want = Digest {
        corruptions: 68_632_069,
        signals: 381,
        detections: 17,
        series_csv: 0x9d12_71ac_ddd0_635f,
        trace_jsonl: 0xd7f3_ef09_599a_6f15,
        watch_render: 0x8c7d_8a27_4984_3066,
    };
    pin(
        "closed sparse",
        &scenario(7, true, SimEngine::Sparse),
        &want,
    );
}

#[test]
fn legacy_open_loop_is_bit_identical_to_pre_refactor() {
    let want = Digest {
        corruptions: 458_834_565,
        signals: 30_430,
        detections: 18,
        series_csv: 0xfc1a_1b5a_5f10_5c10,
        trace_jsonl: 0xbab9_4b5d_c7cd_565f,
        watch_render: 0x12bd_a6f4_5a1e_e9d2,
    };
    pin("open sparse", &scenario(7, false, SimEngine::Sparse), &want);
}

#[test]
fn legacy_dense_closed_loop_is_bit_identical_to_pre_refactor() {
    let want = Digest {
        corruptions: 9_592,
        signals: 274,
        detections: 5,
        series_csv: 0xfd0f_f437_64a6_f8e5,
        trace_jsonl: 0x39ea_604b_8a1c_6b68,
        watch_render: 0x63bd_1bdd_32a9_9ac1,
    };
    pin("closed dense", &scenario(23, true, SimEngine::Dense), &want);
}

#[test]
fn audited_closed_loop_is_pinned() {
    let want = Digest {
        corruptions: 68_632_069,
        signals: 381,
        detections: 17,
        series_csv: 0x9d12_71ac_ddd0_635f,
        trace_jsonl: 0x2369_51ed_0f27_479a,
        watch_render: 0x8c7d_8a27_4984_3066,
    };
    pin("audited closed", &audited(true), &want);
}

#[test]
fn audited_open_loop_is_pinned() {
    let want = Digest {
        corruptions: 458_834_565,
        signals: 30_430,
        detections: 18,
        series_csv: 0xfc1a_1b5a_5f10_5c10,
        trace_jsonl: 0xf746_6dfb_23af_9993,
        watch_render: 0x12bd_a6f4_5a1e_e9d2,
    };
    pin("audited open", &audited(false), &want);
}

#[test]
fn workloads_closed_loop_is_pinned() {
    let want = Digest {
        corruptions: 91_366_569,
        signals: 375,
        detections: 17,
        series_csv: 0x8f05_93b5_43db_6008,
        trace_jsonl: 0x847a_0e4c_8c32_c3c7,
        watch_render: 0xf940_1c68_d1b6_90b6,
    };
    pin("workloads closed", &with_workloads(true), &want);
}

#[test]
fn workloads_open_loop_is_pinned() {
    let want = Digest {
        corruptions: 482_071_100,
        signals: 30_371,
        detections: 18,
        series_csv: 0x1b38_3d27_3f45_c552,
        trace_jsonl: 0x5c0c_89fa_710f_129d,
        watch_render: 0xaa56_afe4_7b5f_ac32,
    };
    pin("workloads open", &with_workloads(false), &want);
}
