# Convenience targets. Everything is plain cargo underneath; the build is
# fully offline (external deps are vendored under shims/).

CARGO ?= cargo
export CARGO_NET_OFFLINE = true

.PHONY: build test test-all chaos-sweep chaos-experiments trace-replay bench bench-compare bench-trend profile golden-diff loc layers names surface clean

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

## Row-by-row byte identity against another commit. tests/golden.rs
## keeps the digest, bill and report texts behind each pin in
## target/golden/<row>.txt as it checks the row. This runs it in a
## `git worktree` of REV under target/golden-diff/ (with this tree's
## tests/golden.rs, so both sides run the same rows), then here, and
## diffs the two sets of texts: nothing printed means every row is
## byte-identical; a difference names the row and the series that moved.
## Pin failures on either side are the diff's to explain, so they do not
## stop it; a side that writes no texts does.
golden-diff:
	@test -n "$(REV)" || { echo "usage: make golden-diff REV=<rev>" >&2; exit 2; }
	@set -e; out=$(CURDIR)/target/golden-diff; here=$${CARGO_TARGET_DIR:-$(CURDIR)/target}/golden; \
	rm -rf $$out/tree $$out/rev $$out/build/golden $$here; git worktree prune; \
	git worktree add -q --detach $$out/tree $(REV); \
	cp tests/golden.rs $$out/tree/tests/golden.rs; \
	(cd $$out/tree && CARGO_TARGET_DIR=$$out/build $(CARGO) test -q --test golden >$$out/rev.log 2>&1) || true; \
	git worktree remove --force $$out/tree; \
	test -d $$out/build/golden || { tail -20 $$out/rev.log >&2; echo "golden-diff: $(REV) wrote no texts" >&2; exit 1; }; \
	mv $$out/build/golden $$out/rev; \
	$(CARGO) test -q --test golden >$$out/here.log 2>&1 || true; \
	test -d $$here || { tail -20 $$out/here.log >&2; echo "golden-diff: this tree wrote no texts" >&2; exit 1; }; \
	diff -r $$out/rev $$here

## Non-test source lines per crate: every `src/**/*.rs`, each counted up
## to its test module, the first `#[cfg(test)]` at column 0 (a doc comment
## that mentions the attribute, or one indented on a single test-only
## method, does not end the file). `total` is the crates/ meter for
## ROADMAP's subtraction pass; the vendored shims/ crates follow it, and
## the last line is the meter with them.
loc:
	@for c in crates/* shims/*/; do \
		find $${c%/}/src -name '*.rs' | xargs awk -v crate=$${c%/} \
			'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { printf "%7d  %s\n", n, crate }'; \
	done | awk '/ shims\// && !shims++ { printf "%7d  total\n", total } \
		{ print; all += $$1 } !shims { total += $$1 } \
		END { if (!shims) printf "%7d  total\n", total; printf "%7d  total with shims/\n", all }'

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
## simulated by the million record and bill through handles, and the
## replay invokes by id. Fails on a metric call with a string-literal
## name, or a by-name `ledger.charge`, in the per-operation crates, and on
## any by-name `.invoke(` in crates/trace, in their non-test code (each
## file up to its test module, as in `loc`). A handle's own `charge` takes
## `&ledger` first and passes.
names:
	@hits=$$(for c in kv blob queue net agents compute trace; do \
		find crates/$$c/src -name '*.rs' | xargs awk \
			'FNR == 1 { test = 0; replay = (FILENAME ~ /^crates\/trace\//) } /^#\[cfg\(test\)\]/ { test = 1 } \
			!test && (replay ? /\.invoke\(/ : /\.(record|record_duration|add|incr)\([ \t]*"/ || /\.charge\(([^&]|$$)/) \
				{ printf "%s:%d:%s\n", FILENAME, FNR, $$0 }'; \
	done); \
	if [ -n "$$hits" ]; then \
		echo "$$hits"; \
		echo "names: a per-operation crate records or bills by name (use a LazyCounter/LazyHist/LazyItem), or the replay invokes by name (use invoke_id)" >&2; exit 1; fi; \
	echo "names: ok"

## Public surface with a caller: every `pub fn|struct|enum|trait|type|const`
## declared in a crate's non-test source (each file up to its test module,
## as in `loc`) must be named somewhere else. Its name has to occur as a
## word, outside `//` comments and `pub use` lines, in another `.rs` file
## under crates/, examples/, tests/ or benchmark/src/, or in its own file
## before the test module. A `fn` counts only where it is called or named
## as a path (`name(`, `::name` as the path's last segment), not where a
## field, a variable or a module of its name appears.
## An item kept only as a test's reference carries an indented
## `#[cfg(test)]` and is skipped. Fails listing the uncalled.
surface:
	@hits=$$(find crates examples tests benchmark/src -name '*.rs' -not -path '*/target/*' | sort | xargs awk ' \
		FNR == 1 { test = 0; skip = 0; inuse = 0; src = (FILENAME ~ /^crates\/[^\/]+\/src\//) } \
		/^#\[cfg\(test\)\]/ { test = 1 } \
		{ line = $$0; sub(/\/\/.*/, "", line) } \
		inuse { if (line ~ /;/) inuse = 0; next } \
		line ~ /^[ \t]*pub use/ { if (line !~ /;/) inuse = 1; next } \
		src && !test && line ~ /^[ \t]+#\[cfg\(test\)\]/ { skip = 1 } \
		src && !test && match(line, /^[ \t]*pub[ \t]+((const|async|unsafe)[ \t]+)*(fn|struct|enum|trait|type|const)[ \t]+[A-Za-z_][A-Za-z0-9_]*/) { \
			name = substr(line, RSTART, RLENGTH); sub(/.*[ \t]/, "", name); \
			if (!skip) { n++; dname[n] = name; dfile[n] = FILENAME; dline[n] = FNR; dfn[n] = (substr(line, RSTART, RLENGTH) ~ /fn[ \t]/) } \
		} \
		line !~ /^[ \t]*(#\[.*)?$$/ { skip = 0 } \
		{ \
			rest = line; gsub(/fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/, "", rest); \
			while (match(rest, /(::)?[A-Za-z_][A-Za-z0-9_]*\(|::[A-Za-z_][A-Za-z0-9_]*/)) { \
				c = "call " substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH); \
				if (c !~ /\($$/ && rest ~ /^::[A-Za-z_]/) continue; gsub(/[:(]/, "", c); \
				if (!((c, FILENAME) in seen)) { seen[c, FILENAME] = 1; nfiles[c]++ } \
				if (src && !test) own[FILENAME, c]++ \
			} \
			gsub(/[^A-Za-z0-9_]+/, " ", line); k = split(line, w, " "); \
			for (i = 1; i <= k; i++) { \
				if (!((w[i], FILENAME) in seen)) { seen[w[i], FILENAME] = 1; nfiles[w[i]]++ } \
				if (src && !test) own[FILENAME, w[i]]++ \
			} \
		} \
		END { for (i = 1; i <= n; i++) { \
			if (dfn[i]) { c = "call " dname[i]; unused = nfiles[c] - ((c, dfile[i]) in seen) < 1 && own[dfile[i], c] < 1 } \
			else unused = nfiles[dname[i]] < 2 && own[dfile[i], dname[i]] < 2; \
			if (unused) printf "%s:%d: %s\n", dfile[i], dline[i], dname[i] } }'); \
	if [ -n "$$hits" ]; then \
		echo "$$hits"; \
		echo "surface: public items nothing calls; delete them (or mark a test-only reference #[cfg(test)])" >&2; exit 1; fi; \
	echo "surface: ok"

clean:
	$(CARGO) clean
