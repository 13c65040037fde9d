//! # mercurial-bench
//!
//! Experiment binaries and Criterion benches regenerating the paper's
//! figure and quantitative claims. One binary per experiment in
//! EXPERIMENTS.md (`cargo run --release -p mercurial-bench --bin <id>`),
//! one Criterion bench per overhead claim (`cargo bench -p
//! mercurial-bench`).
#![warn(missing_docs)]

use std::time::Instant;

/// Chooses experiment scale from the `MERCURIAL_SCALE` environment
/// variable: `paper` (20,000 machines, 36 months — minutes of runtime) or
/// anything else / unset for the laptop-friendly demo scale.
pub fn scenario_from_env(seed: u64) -> mercurial::Scenario {
    match std::env::var("MERCURIAL_SCALE").as_deref() {
        Ok("paper") => {
            let mut s = mercurial::Scenario::default_paper();
            s.fleet.seed = seed;
            s
        }
        _ => mercurial::Scenario::demo(seed),
    }
}

/// Loads the committed paper-scale scenario (`scenarios/paper.json`),
/// falling back to [`scenario_from_env`] with `fallback_seed` when the
/// file is not there (a crate built outside the repository).
pub fn load_paper_scenario(fallback_seed: u64) -> mercurial::Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/paper.json");
    match std::fs::read_to_string(path) {
        Ok(json) => mercurial::Scenario::from_json(&json).expect("scenarios/paper.json parses"),
        Err(_) => scenario_from_env(fallback_seed),
    }
}

/// Best-of-`reps` wall-clock seconds for `f`.
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Per-arm best of `reps` rounds. Every round times each arm once, and
/// the starting arm rotates so no arm always runs first or last. Each
/// arm returns its own measured seconds.
pub fn interleaved_best_of<const N: usize>(
    reps: usize,
    arms: [&mut dyn FnMut() -> f64; N],
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for round in 0..reps {
        for k in 0..N {
            let i = (round + k) % N;
            best[i] = best[i].min(arms[i]());
        }
    }
    best
}

/// Wall-clock seconds of one call of `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Writes one `BENCH_*.json` under the shared [`BenchMeta`] envelope.
///
/// `body` is the experiment's own `"key": value` lines (no outer
/// braces) — the envelope contributes schema, experiment id, git
/// commit, host fingerprint, timestamp, reps, and the bench's own
/// wall-clock phase breakdown from `prof`, so all baselines stay
/// machine-comparable under one schema.
///
/// [`BenchMeta`]: mercurial_prof::BenchMeta
pub fn write_bench_json(
    path: &str,
    experiment: &str,
    reps: u64,
    profile: &mercurial_prof::SelfProfile,
    body: &str,
) {
    let meta = mercurial_prof::BenchMeta::capture(experiment, reps, profile);
    std::fs::write(path, meta.envelope(body))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_default_is_demo_scale() {
        let s = scenario_from_env(1);
        assert!(s.fleet.machines <= 2_000);
    }
}
