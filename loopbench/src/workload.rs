//! The three closed-loop workloads, driven from outside through the
//! laboratory's public API, with a host-time timer around every call into
//! a layer and an outcome check on every loop.

use std::hint::black_box;
use std::time::Instant;

use mercurial::audit::{AuditReport, DecisionLedger, GroundTruth};
use mercurial::metrics::EpochSeries;
use mercurial::shardloop::{record_ground_truth_onsets, shard_ranges, watch_engine};
use mercurial::{FleetAggregator, FleetExperiment, FleetShard, Scenario};
use mercurial_prof::{Prof, SelfProfile};
use mercurial_serve::{run_served, ServeOptions};

use crate::host::CpuTimes;
use crate::pins::Pins;

/// Fewest set-ups a run measures, so that `setup_s` is a median even on
/// a workload that simulates a single fleet.
const MIN_SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 20k machines, trace + watch + audit on, JSONL export and audit
    /// fold after every loop: observability fully on.
    PaperObserved,
    /// 1M machines, untraced: a working set far larger than the caches.
    Fleet1m,
    /// 20k machines, untraced, two lockstep workers over loopback TCP.
    Served2w,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-observed" => Some(Workload::PaperObserved),
            "fleet-1m" => Some(Workload::Fleet1m),
            "served-2w" => Some(Workload::Served2w),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperObserved => "paper-observed",
            Workload::Fleet1m => "fleet-1m",
            Workload::Served2w => "served-2w",
        }
    }

    /// The workload's configuration of the paper scenario. Every workload
    /// closes the loop and keeps the scenario's own `sim.parallelism`,
    /// except that each served worker computes on one thread.
    pub fn scenario(self, paper: &Scenario) -> Scenario {
        let mut s = paper.clone();
        s.closed_loop.feedback = true;
        match self {
            Workload::PaperObserved => {
                s.trace.enabled = true;
                s.watch.enabled = true;
                s.audit.enabled = true;
            }
            Workload::Fleet1m => s.fleet.machines = 1_000_000,
            Workload::Served2w => {
                s.serve.workers = 2;
                s.sim.parallelism = 1;
            }
        }
        s
    }

    /// Host seconds one fleet (set-up and loop) took on a 2-vCPU host.
    /// Only sizes the fleet count from `--seconds`; the count, and so
    /// every work count, is a pure function of the arguments.
    fn nominal_fleet_seconds(self) -> f64 {
        match self {
            Workload::PaperObserved => 0.9,
            Workload::Fleet1m => 8.0,
            Workload::Served2w => 0.17,
        }
    }

    pub fn fleets(self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_fleet_seconds()) as usize).max(1)
    }
}

/// The `i`-th fleet seed of a workload seed (a SplitMix64 stream), so
/// every workload seeded alike simulates the same fleets.
pub fn fleet_seed(workload_seed: u64, i: u64) -> u64 {
    let mut z = workload_seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host seconds of one set-up, split by constructor.
#[derive(Debug, Default, Clone, Copy)]
pub struct Setup {
    pub build: f64,
    pub aggregator: f64,
    pub shards: f64,
}

impl Setup {
    pub fn total(&self) -> f64 {
        self.build + self.aggregator + self.shards
    }
}

/// One fleet's loop: the operation the benchmark counts.
#[derive(Debug)]
pub struct Loop {
    pub machines: u32,
    pub fleet_seed: u64,
    pub machine_epochs: u64,
    /// Host seconds from the first `begin_epoch` to the end of the
    /// post-run work (for served runs, the whole `run_served` call).
    pub wall: f64,
    pub corruptions: u64,
    pub detections: u64,
    /// Whether `pins.tsv` has an entry for this fleet.
    pub pinned: bool,
    /// CPU steal share over the fleet's set-up and loop.
    pub steal_share: Option<f64>,
    pub failure: Option<String>,
}

/// Host seconds in each benchmark-timed call, summed over a run's loops.
#[derive(Debug, Default)]
pub struct Timers {
    pub begin_epoch: f64,
    pub step_epoch: f64,
    pub ingest: f64,
    pub finish: f64,
    pub export: f64,
    pub fold: f64,
    pub serve_call: f64,
}

/// Deterministic work counts, summed over a run's loops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub machine_epochs: u64,
    pub core_screens: u64,
    pub test_ops: u64,
    pub evidence_signals: u64,
    pub detections: u64,
    pub corruptions: u64,
    pub trace_events: u64,
    pub trace_bytes: u64,
    pub audit_decisions: u64,
    pub link_frames: u64,
}

impl Counts {
    pub fn named(&self) -> [(&'static str, u64); 10] {
        [
            ("machine_epochs", self.machine_epochs),
            ("core_screens", self.core_screens),
            ("screen.test_ops", self.test_ops),
            ("evidence_signals", self.evidence_signals),
            ("detections", self.detections),
            ("corruptions", self.corruptions),
            ("trace.events", self.trace_events),
            ("trace.bytes", self.trace_bytes),
            ("audit.decisions", self.audit_decisions),
            ("link.frames", self.link_frames),
        ]
    }
}

pub struct Run {
    pub workload: Workload,
    pub setups: Vec<Setup>,
    pub loops: Vec<Loop>,
    pub timers: Timers,
    pub counts: Counts,
    /// Phases the program's own profiler recorded (empty when untraced).
    pub profile: SelfProfile,
}

/// Runs `workload` over the fleets derived from `seed`. With `traced`,
/// the program's profiler is attached (and inherited by served workers)
/// so that the per-layer split can be read from it.
pub fn run(workload: Workload, paper: &Scenario, seed: u64, seconds: u64, traced: bool) -> Run {
    let pins = Pins::compiled();
    let base = workload.scenario(paper);
    let fleets = workload.fleets(seconds);
    let prof = Prof::with_enabled(traced);
    if traced {
        std::env::set_var("MERCURIAL_PROF", "1");
    } else {
        std::env::remove_var("MERCURIAL_PROF");
    }
    let mut run = Run {
        workload,
        setups: Vec::new(),
        loops: Vec::new(),
        timers: Timers::default(),
        counts: Counts::default(),
        profile: SelfProfile::default(),
    };
    let seeded = |i: usize| {
        let mut s = base.clone();
        s.fleet.seed = fleet_seed(seed, i as u64);
        s
    };
    // Extra set-ups run first and are dropped before any loop, so they
    // never sit in memory beside a running fleet.
    for j in fleets..fleets.max(MIN_SETUPS) {
        run.setups.push(setup_only(&seeded(j)));
    }
    for i in 0..fleets {
        let s = seeded(i);
        let cpu = CpuTimes::read();
        let mut lp = match workload {
            Workload::Served2w => served_loop(&s, &prof, &mut run),
            _ => in_process_loop(&s, &prof, workload == Workload::PaperObserved, &mut run),
        };
        lp.steal_share = cpu
            .zip(CpuTimes::read())
            .and_then(|(a, b)| a.steal_share_until(&b));
        if let Some(pin) = pins.get(lp.machines, lp.fleet_seed) {
            lp.pinned = true;
            if lp.failure.is_none()
                && (lp.corruptions, lp.detections) != (pin.corruptions, pin.detections)
            {
                lp.failure = Some(format!(
                    "fleet {}: corruptions/detections {}/{} differ from pinned {}/{}",
                    lp.fleet_seed, lp.corruptions, lp.detections, pin.corruptions, pin.detections
                ));
            }
        }
        run.loops.push(lp);
    }
    run.profile = prof.finish();
    run
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Times one set-up without running a loop: the experiment, the
/// aggregator, and one shard per worker range, each dropped again. For a
/// served scenario this is the set-up `run_served` does inside (an
/// experiment and aggregator for the server, a shard per worker); in
/// process, `serve.workers` is 1 and the one range is the whole fleet.
fn setup_only(s: &Scenario) -> Setup {
    let mut setup = Setup::default();
    let experiment = timed(&mut setup.build, || FleetExperiment::build(s));
    timed(&mut setup.aggregator, || {
        drop(FleetAggregator::new(s, &experiment, watch_engine(s, &None)))
    });
    for (lo, hi) in shard_ranges(s.fleet.machines, s.serve.workers) {
        timed(&mut setup.shards, || {
            drop(FleetShard::new(s, &experiment, lo, hi))
        });
    }
    setup
}

/// One in-process fleet: set-up, then begin → apply → step → ingest per
/// epoch, `finish`, and (with `post_run`) the trace JSONL export and the
/// audit fold that `mercurial-lab prof`/`audit` do after a run.
fn in_process_loop(s: &Scenario, prof: &Prof, post_run: bool, run: &mut Run) -> Loop {
    let mut setup = Setup::default();
    let experiment = timed(&mut setup.build, || FleetExperiment::build(s));
    let mut agg = timed(&mut setup.aggregator, || {
        FleetAggregator::new(s, &experiment, watch_engine(s, &None))
    });
    let mut shard = timed(&mut setup.shards, || {
        FleetShard::new(s, &experiment, 0, s.fleet.machines)
    });
    run.setups.push(setup);
    let mut rec = s.recorder();
    record_ground_truth_onsets(&experiment, &mut rec);

    let t = &mut run.timers;
    let start = Instant::now();
    while !agg.is_done() {
        let cmds = timed(&mut t.begin_epoch, || agg.begin_epoch(&mut rec, prof));
        shard.apply_commands(&cmds);
        let report = timed(&mut t.step_epoch, || shard.step_epoch(&mut rec, prof));
        timed(&mut t.ingest, || {
            agg.ingest_reports(vec![report], &mut rec, prof)
        });
    }
    let epochs = agg.total_epochs();
    let (finished, trace) = timed(&mut t.finish, || {
        let finished = agg.finish(&mut rec, &[], None, prof);
        (finished, rec.finish())
    });
    let mut conserves = true;
    if post_run {
        let bytes = timed(&mut t.export, || black_box(trace.to_jsonl()).len());
        let rules: Vec<String> = s
            .watch
            .rule_set()
            .rules
            .into_iter()
            .map(|r| r.name)
            .collect();
        let decisions = timed(&mut t.fold, || {
            let ledger = DecisionLedger::from_trace(&trace);
            let truth = GroundTruth::from_ledger(&ledger);
            conserves = AuditReport::build(&ledger, &truth, &rules).conserves(&ledger);
            ledger.len()
        });
        run.counts.trace_bytes += bytes as u64;
        run.counts.audit_decisions += decisions as u64;
    }
    let wall = start.elapsed().as_secs_f64();
    run.counts.trace_events += trace.events.len() as u64;

    let mut lp = outcome(
        s,
        epochs,
        wall,
        &finished.pipeline,
        &finished.series,
        &mut run.counts,
    );
    if lp.failure.is_none() && !conserves {
        lp.failure = Some(format!(
            "fleet {}: audit report does not conserve",
            lp.fleet_seed
        ));
    }
    lp
}

/// One served fleet: the set-up replica, then the whole `run_served`
/// call (its own set-up included) as the loop.
fn served_loop(s: &Scenario, prof: &Prof, run: &mut Run) -> Loop {
    run.setups.push(setup_only(s));
    let opts = ServeOptions {
        prof: Some(prof),
        ..ServeOptions::default()
    };
    let start = Instant::now();
    let served = run_served(s, &opts);
    let wall = start.elapsed().as_secs_f64();
    run.timers.serve_call += wall;
    match served {
        Ok(served) => {
            let out = &served.outcome;
            run.counts.link_frames += served.link.frames;
            outcome(
                s,
                out.epochs,
                wall,
                &out.pipeline,
                &out.series,
                &mut run.counts,
            )
        }
        Err(e) => Loop {
            machines: s.fleet.machines,
            fleet_seed: s.fleet.seed,
            machine_epochs: 0,
            wall,
            corruptions: 0,
            detections: 0,
            pinned: false,
            steal_share: None,
            failure: Some(format!("fleet {}: run_served failed: {e}", s.fleet.seed)),
        },
    }
}

/// The loop record and work counts of a finished loop, failed if its
/// per-epoch series does not add up to the simulator's corruptions.
fn outcome(
    s: &Scenario,
    epochs: u32,
    wall: f64,
    p: &mercurial::PipelineOutcome,
    series: &EpochSeries,
    counts: &mut Counts,
) -> Loop {
    let machine_epochs = u64::from(s.fleet.machines) * u64::from(epochs);
    let stats = [p.burnin_stats, p.offline_stats, p.online_stats];
    counts.machine_epochs += machine_epochs;
    counts.core_screens += stats.iter().map(|x| x.core_screens).sum::<u64>();
    counts.test_ops += stats.iter().map(|x| x.test_ops).sum::<u64>();
    counts.evidence_signals += p.signals.len() as u64;
    counts.detections += p.detections.len() as u64;
    counts.corruptions += p.sim_summary.corruptions;
    Loop {
        machines: s.fleet.machines,
        fleet_seed: s.fleet.seed,
        machine_epochs,
        wall,
        corruptions: p.sim_summary.corruptions,
        detections: p.detections.len() as u64,
        pinned: false,
        steal_share: None,
        failure: (series.total_corrupt_ops() != p.sim_summary.corruptions).then(|| {
            format!(
                "fleet {}: series corrupt ops {} != sim corruptions {}",
                s.fleet.seed,
                series.total_corrupt_ops(),
                p.sim_summary.corruptions
            )
        }),
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

impl Run {
    pub fn failed(&self) -> usize {
        self.loops.iter().filter(|l| l.failure.is_some()).count()
    }

    /// Median over the run's passing loops of machines × epochs per host
    /// second of loop wall.
    pub fn machine_epochs_per_s(&self) -> f64 {
        median(
            self.loops
                .iter()
                .filter(|l| l.failure.is_none() && l.wall > 0.0)
                .map(|l| l.machine_epochs as f64 / l.wall)
                .collect(),
        )
    }

    fn setup_median(&self, part: impl Fn(&Setup) -> f64) -> f64 {
        median(self.setups.iter().map(part).collect())
    }

    pub fn end_to_end(&self, peak_rss_bytes: u64) -> Vec<Metric> {
        vec![
            Metric {
                name: "machine_epochs_per_s",
                value: self.machine_epochs_per_s(),
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: self.setup_median(Setup::total),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mib",
                value: peak_rss_bytes as f64 / (1024.0 * 1024.0),
                unit: "MiB",
            },
        ]
    }

    /// Host seconds per layer and the work counts. Set-up layers are
    /// per-set-up medians, like `setup_s`; loop layers are sums over the
    /// run's loops, so that they add up to `loop.wall_s`. In-process
    /// loops time each public call from outside and split it with the
    /// profiler's phases; a served loop is one `run_served` call, split
    /// with the server's phases and the workers' phases that the server
    /// absorbs under `serve.workers`.
    pub fn per_layer(&self) -> Vec<Metric> {
        let p = &self.profile;
        let ph = |path: &str| p.wall_ns(path) as f64 / 1e9;
        let t = &self.timers;
        let served = self.workload == Workload::Served2w;
        let shard = if served {
            "serve.workers;shard.epoch"
        } else {
            "shard.epoch"
        };
        let wall: f64 = self.loops.iter().map(|l| l.wall).sum();
        let (begin, step, ingest, finish) = if served {
            (
                ph("loop.begin"),
                ph(shard),
                ph("loop.ingest"),
                ph("loop.finish"),
            )
        } else {
            (t.begin_epoch, t.step_epoch, t.ingest, t.finish)
        };
        let (io, encode, decode) = (ph("serve.io"), ph("serve.encode"), ph("serve.decode"));
        // A served worker's step runs beside the server, so only the
        // server's own phases are taken out of the call's wall.
        let timed = if served {
            begin + ingest + finish + io + encode + decode
        } else {
            begin + step + ingest + finish + t.export + t.fold
        };
        let s = |name, value| Metric {
            name,
            value,
            unit: "s",
        };
        let mut out = vec![
            s("experiment.build_s", self.setup_median(|x| x.build)),
            s("shard.new_s", self.setup_median(|x| x.shards)),
            s("aggregator.new_s", self.setup_median(|x| x.aggregator)),
            s("loop.wall_s", wall),
            s("shard.step_epoch_s", step),
            s("fleet.step_s", ph(&format!("{shard};fleet.step"))),
            s("screen.online_s", ph(&format!("{shard};screen.online"))),
            s("screen.offline_s", ph(&format!("{shard};screen.offline"))),
            s("screen.burnin_s", ph(&format!("{shard};screen.burnin"))),
            s("aggregator.begin_epoch_s", begin),
            s("aggregator.ingest_s", ingest),
            s("score.ingest_s", ph("loop.ingest;score.ingest")),
            s(
                "watch.eval_s",
                ph("loop.ingest;watch.eval") + ph("loop.finish;watch.eval"),
            ),
            s("aggregator.finish_s", finish),
            s("trace.export_s", t.export),
            s("audit.fold_s", t.fold),
            s("serve.call_s", t.serve_call),
            s("serve.io_s", io),
            s("serve.encode_s", encode),
            s("serve.decode_s", decode),
            s("unattributed_s", wall - timed),
            Metric {
                name: "traced.machine_epochs_per_s",
                value: self.machine_epochs_per_s(),
                unit: "1/s",
            },
        ];
        out.extend(self.counts.named().into_iter().map(|(name, v)| {
            // Screening test ops pass 2^53 on a 25 s run of `fleet-1m` or
            // `served-2w`, beyond what a JSON number read as a double holds
            // exactly, so they are reported in millions. The `counts` line
            // keeps the exact integer.
            let (value, unit) = if name == "screen.test_ops" {
                ((v / 1_000_000) as f64 + (v % 1_000_000) as f64 / 1e6, "Mop")
            } else {
                (v as f64, "count")
            };
            Metric { name, value, unit }
        }));
        out
    }
}
