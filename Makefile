# Convenience targets. Everything is plain cargo underneath; the build is
# fully offline (external deps are vendored under shims/).

CARGO ?= cargo
export CARGO_NET_OFFLINE = true

.PHONY: build test test-all chaos-sweep chaos-experiments trace-replay bench bench-compare bench-trend profile loc layers names clean

## Release build of the whole workspace.
build:
	$(CARGO) build --release

## Tier-1: the root crate's tests (unit + integration + doc).
test:
	$(CARGO) build --release
	$(CARGO) test -q

## Every crate in the workspace, including the chaos and shim crates.
test-all:
	$(CARGO) test --workspace -q

## Tier-1 verify, then the deterministic fault-injection sweep over the
## CRDT-sync and queue-pipeline scenarios, fanned out across every core
## (byte-identical to a serial sweep) and reporting seeds/sec. Fails
## (nonzero exit) on any invariant violation or replay divergence and
## prints the minimal failing seed. Override the seed count with
## CHAOS_SEEDS=<n>.
CHAOS_SEEDS ?= 16
chaos-sweep: test
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) run --release --example chaos_sweep

## The eight paper workloads as chaos scenarios (`experiment_scenarios`;
## EXPERIMENTS.md "Resilience model" says what they are), swept across
## CHAOS_SEEDS seeds under both the calm and the hostile fault plan. Every
## seed must satisfy its workload's invariant and `check_cloud` and replay
## byte-identically; each line also counts the seeds every injected fault
## fired in.
chaos-experiments: test
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) run --release --example chaos_experiments

## Paper-scale trace replay: stream a ~1.1M-invocation, 12k-function
## Azure-style workload trace (Zipf popularity, Poisson/bursty/diurnal
## arrivals) through the platform and print the replay report —
## cold-start rate, latency p50/p95/p99/p99.9, fairness spread, packing
## density, $/hr. Runs the seed twice and fails unless digest, bill, and
## report are byte-identical. `TRACE_SEED=<s>` picks the seed.
TRACE_SEED ?= 2019
trace-replay:
	$(CARGO) run --release --example trace_replay -- --seed $(TRACE_SEED)

## Wall-clock kernel suite: events/sec through the DES kernel, the
## fair-share link, the election's poll loop, the platform's warm path and
## the trace replays, best of five rounds. Prints the table; writes a
## snapshot only when told where. A perf PR records its own, append-only:
## `BENCH_OUT=$(CURDIR)/BENCH_pr<N>.json make bench`.
bench:
	$(CARGO) bench -p faasim-bench --bench wallclock

## Regression gate: re-run the wall-clock suite and diff it against the
## newest committed BENCH_pr<N>.json (highest N; BENCH_baseline.json is
## the trajectory's first point and anchors nothing once a pr file
## exists). Fails (nonzero exit) if any kernel in that snapshot is more
## than 25% slower on events/sec.
bench-compare:
	$(CARGO) bench -p faasim-bench --bench bench_compare

## Perf trajectory: kernel events/sec across BENCH_baseline.json and every
## committed BENCH_pr<N>.json, oldest first, each with its ratio to the
## snapshot before it. Parses files only; fails on a malformed snapshot.
bench-trend:
	$(CARGO) bench -p faasim-bench --bench bench_trend

## Engine profile: run the replay kernels once and print the executor's
## SimProfile counters (task polls, timer pushes/fires/cancels, wheel
## cascades, spawns, peak live tasks) next to invocations/sec, so perf
## work can attribute wins instead of guessing from wall-clock alone.
## PROFILE_SCALE=100k (default) | 1m | 1m-smoke.
PROFILE_SCALE ?= 100k
profile:
	PROFILE_SCALE=$(PROFILE_SCALE) $(CARGO) bench -p faasim-bench --bench profile

## Non-test source lines per crate: every `src/**/*.rs`, each counted up
## to its test module, the first `#[cfg(test)]` at column 0 (a doc comment
## that mentions the attribute, or one indented on a single test-only
## method, does not end the file). The meter for ROADMAP's subtraction pass.
loc:
	@for c in crates/*; do \
		find $$c/src -name '*.rs' | xargs awk -v crate=$$c \
			'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { printf "%7d  %s\n", n, crate }'; \
	done | awk '{ print; total += $$1 } END { printf "%7d  total\n", total }'

## Dependency order (DESIGN.md §3), normal edges only: the core crate
## must not reach a layer above it, nor the resilience crate the core.
layers:
	@tree="$(CARGO) tree --offline -e normal --prefix none -p"; \
	core=$$($$tree faasim) && resilience=$$($$tree faasim-resilience) || exit 1; \
	if echo "$$core" | tail -n +2 | grep -E '^faasim-(resilience|gateway|trace|chaos|bench) '; then \
		echo "layers: faasim (crates/core) reaches a layer above it" >&2; exit 1; fi; \
	if echo "$$resilience" | tail -n +2 | grep -E '^faasim '; then \
		echo "layers: faasim-resilience reaches faasim (crates/core)" >&2; exit 1; fi; \
	echo "layers: ok"

## Handles, not names (DESIGN.md §3): the crates whose operations are
## simulated by the million record and bill through handles. Fails on a
## metric call with a string-literal name, or a by-name `ledger.charge`,
## in their non-test code (each file up to its test module, as in
## `loc`). A handle's own `charge` takes `&ledger` first and passes.
names:
	@hits=$$(for c in kv blob queue net agents compute; do \
		find crates/$$c/src -name '*.rs' | xargs awk \
			'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } \
			!test && (/\.(record|record_duration|add|incr)\([ \t]*"/ || /\.charge\(([^&]|$$)/) \
				{ printf "%s:%d:%s\n", FILENAME, FNR, $$0 }'; \
	done); \
	if [ -n "$$hits" ]; then \
		echo "$$hits"; \
		echo "names: a per-operation crate records or bills by name; use a LazyCounter/LazyHist/LazyItem" >&2; exit 1; fi; \
	echo "names: ok"

clean:
	$(CARGO) clean
