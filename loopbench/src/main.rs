//! Closed-loop benchmark for the mercurial laboratory.
//!
//! ```text
//! loopbench --workload <paper-observed|fleet-1m|served-2w> --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (it reads `scenarios/paper.json`). Each
//! run simulates a fixed number of fleets, derived from `--seconds`, with
//! fleet seeds derived from `--seed`, and checks every loop's outcome.
//! Standard output carries one `loop` line per fleet, a `counts` line of
//! deterministic work counts, a `meta` line of host context, and as its
//! last line the result object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. See `BENCHMARK.md`.

mod host;
mod pins;
mod workload;

use std::fmt::Write as _;
use std::process::exit;

use mercurial::fleet::par::{fan_out_min_cost, resolve_parallelism};
use mercurial::Scenario;
use workload::{Metric, Workload};

const USAGE: &str = "usage: loopbench --workload <paper-observed|fleet-1m|served-2w> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 25u64, false);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("loopbench: {e}\n{USAGE}");
        exit(2);
    });
    let path = "scenarios/paper.json";
    let paper = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|json| Scenario::from_json(&json))
        .unwrap_or_else(|e| {
            eprintln!("loopbench: cannot load {path} (run from the repository root): {e}");
            exit(1);
        });
    let scenario = args.workload.scenario(&paper);
    // Calibrated by timing thread spawns at first use; read before the
    // run so the calibration is not charged to a loop.
    let min_cost = fan_out_min_cost();

    let cpu_before = host::CpuTimes::read();
    let run = workload::run(args.workload, &paper, args.seed, args.seconds, args.trace);
    let cpu_after = host::CpuTimes::read();
    let peak_rss = mercurial_prof::peak_rss_bytes().unwrap_or(0);

    for l in &run.loops {
        println!(
            "loop {} {} {} {} {} {} {}",
            l.machines,
            l.fleet_seed,
            l.corruptions,
            l.detections,
            num(l.wall),
            if l.failure.is_some() { "FAIL" } else { "ok" },
            l.steal_share.map_or("null".to_string(), num)
        );
        if let Some(f) = &l.failure {
            eprintln!("loopbench: {f}");
        }
    }
    let counts: Vec<String> = run
        .counts
        .named()
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    println!("counts {{{}}}", counts.join(", "));
    let steal = match (cpu_before, cpu_after) {
        (Some(a), Some(b)) => a.steal_share_until(&b),
        _ => None,
    };
    let load = host::loadavg().map_or("null".to_string(), |l| {
        format!("[{}, {}, {}]", num(l[0]), num(l[1]), num(l[2]))
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"fleets\": {}, \"setups\": {}, \"machines\": {}, \"pinned_loops\": {}, \
         \"sim_parallelism\": {}, \"resolved_workers\": {}, \"serve_workers\": {}, \
         \"fan_out_min_cost\": {}, \"nproc\": {}, \"steal_share\": {}, \"loadavg\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.loops.len(),
        run.setups.len(),
        scenario.fleet.machines,
        run.loops.iter().filter(|l| l.pinned).count(),
        scenario.sim.parallelism,
        resolve_parallelism(scenario.sim.parallelism),
        if args.workload == Workload::Served2w {
            scenario.serve.workers
        } else {
            0
        },
        min_cost,
        nproc,
        steal.map_or("null".to_string(), num),
        load,
    );

    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end(peak_rss)
    };
    for m in &metrics {
        eprintln!("{:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed = run.failed();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0 && !run.loops.is_empty(),
        run.loops.len(),
        failed,
        metrics_json(&metrics)
    );
}
