# Development entry points. `make ci` is what the CI workflow runs.

CARGO ?= cargo

.PHONY: ci no-twins build test test-workspace fmt fmt-check clippy bench speedup fuzz-smoke e15-smoke trace-smoke watch-smoke sparse-smoke serve-smoke frontier-smoke audit-smoke prof-smoke

ci: no-twins build test-workspace fmt-check clippy fuzz-smoke e15-smoke trace-smoke watch-smoke sparse-smoke serve-smoke frontier-smoke audit-smoke prof-smoke

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

test-workspace:
	$(CARGO) test --workspace -q

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# One path per operation: every instrumented method takes a
# `&mut Recorder` (`Recorder::disabled()` records nothing), so no
# `foo`/`foo_traced` pair may come back.
no-twins:
	! git grep -nE 'fn \w+_traced\b' -- crates src

bench:
	$(CARGO) bench -p mercurial-bench

speedup:
	$(CARGO) run --release -p mercurial-bench --bin par_speedup

# Bounded fuzz campaign (fixed seed, small budget): asserts every lesion
# kind gets a witness, the distilled corpus stays <= 25% of the budget,
# and reports are identical at 1/2/8 worker threads.
fuzz-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e_fuzz -- --smoke

# Bounded closed-loop run (demo scale, fixed seed): asserts the epoch-
# interleaved pipeline strictly reduces residual corrupt-ops vs the open
# loop and that outcomes are identical at 1/2/8 worker threads.
e15-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e15_closed_loop -- --smoke

# Tracing contracts (demo scale, fixed seed): asserts the JSONL trace is
# byte-identical at 1/2/8 worker threads, the Chrome export is valid
# JSON with balanced span pairs, and the incident timeline shows a full
# onset -> signal -> quarantine -> confirm story.
trace-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e16_trace_overhead -- --smoke

# Alerting contracts (demo scale, fixed seed) plus the paper-scale alert
# gate: the committed rule file must stay silent on the healthy paper
# scenario (against the committed baseline) and must fire on the seeded
# detection-regression scenario.
watch-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e17_watch_overhead -- --smoke
	$(CARGO) run --release -- watch --rules scenarios/watch_rules.json --scenario scenarios/paper.json
	! $(CARGO) run --release -- watch --rules scenarios/watch_rules.json --scenario scenarios/watch_regression.json

# Sparse fleet-core contracts: dense/sparse bit-parity through the
# closed-loop driver (traced and untraced, 1/2/8 workers), stepping-
# granularity invariance, and the 1M-machine event accounting — zero
# per-epoch work on healthy machines, wall clock within budget.
sparse-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e18_sparse -- --smoke

# Served-topology contracts: frame-codec round-trip, zero-impairment
# bit-parity between the socket-split pipeline and the in-process driver
# (1/2/4 workers), and loss monotonicity of the impairment layer.
serve-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e19_serve -- --smoke

# Workload-frontier contracts: a zeroed workload layer moves no
# simulation bit, per-class attribution conserves fleet totals at any
# parallelism, and the mitigation ladder is strictly monotone — lower
# residual corruption at strictly higher overhead, every rung.
frontier-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e20_frontier -- --smoke

# Decision-audit contracts: an audit-off run reproduces the E20 pin
# digests bit-for-bit, the ledger replayed from exported JSONL is
# byte-identical to the in-loop ledger at 1/2/8 workers, and attribution
# conserves ground truth (TP+FN == seeded mercurial cores, FP healthy).
audit-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e21_audit -- --smoke

# Self-observability contracts: a profiled run reproduces the E20 legacy
# pin bit-for-bit (the profiler is write-only), the enabled profiler
# stays under its 2% overhead budget, and the shared BenchMeta envelope
# round-trips through its own validator.
prof-smoke:
	$(CARGO) run --release -p mercurial-bench --bin e22_prof -- --smoke
