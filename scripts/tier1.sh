#!/usr/bin/env bash
# Tier-1 gate: the checks every change must keep green, runnable with no
# network access (the default build path has no external dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier 1 rewrites no tracked file and leaves no new one behind: the
# working tree's status is compared at the end.
status_before="$(git status --porcelain)"

cargo build --release --offline 2>/dev/null || cargo build --release
# Run the suite sequentially and with the parallel tape executor: traces
# must be bit-identical at any worker count, so both runs see the same
# expected values. `--workspace` includes every crate's own tests (the
# backend's analytic-posterior checks and reference-integrator lockstep
# among them), not just the root package's.
AUGUR_THREADS=1 cargo test -q --workspace
AUGUR_THREADS=8 cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
# Formatter gate: every package of the workspace under the root
# rustfmt.toml (perfbench/ is its own workspace).
cargo fmt --all --check

# Allocation-free steady state: the counting-allocator harness must see
# zero heap allocations per sweep after warm-up on every model and both
# executor lanes (the plan lifecycle's runtime claim).
cargo test -q --test alloc_free

# Removed names stay removed: one list, shared with CI (see the script
# for what each check keeps deleted).
scripts/gone.sh

# Native-backend smoke: the emit-C-and-dlopen lane must stay bit-exact
# against tree and tape (draws, report digest, profile digest), the
# emitted LDA C must match its golden, and a host without a toolchain
# (AUGUR_CC pointed at a nonexistent binary) must fall back to the tape
# with a recorded reason instead of failing. The fallback lane isolates
# TMPDIR: a disk-cached artifact deliberately makes Native selectable
# without a compiler, which would mask the path under test.
cargo test -q --test native_differential
native_tmp="$(mktemp -d)"
TMPDIR="$native_tmp" AUGUR_CC=/nonexistent/cc \
  cargo test -q --test native_differential
rm -rf "$native_tmp"

# Benchmark smoke: augur-bench (its own workspace under perfbench/) must
# still build against the engine, and at tiny sizes every workload's
# checks must hold: native = tape = tree and bit-identity across thread
# counts. The open_loop test stays out: it asserts wall-clock generator
# lag and fails on busy shared hosts whatever the code does.
cargo test --release --offline --manifest-path perfbench/Cargo.toml --test smoke

# Serving smoke: the service path must stay byte-identical to direct
# ChainPlan runs (including forced mid-run worker migration), and a
# bounded sustained-load run must sustain nonzero throughput with the
# structural plan-cache hit rate. sustained_load prints its JSON record
# on stdout; each run's record goes to a temp file.
cargo test -q --test serve
serve_json="$(mktemp /tmp/augur_serve_XXXXXX.json)"
cargo run --release -p augur-bench --bin sustained_load -- --scale 0.5 >"$serve_json"

# Telemetry gate: streaming ESS/split-R-hat must match the batch
# estimators, the exporter must serve well-formed exposition, draws must
# be byte-identical with scraping on or off, and a v4 trace must
# reconstruct a faulted request (tests/telemetry.rs). The smoke example
# scrapes a live service end to end, and the unfaulted sustained_load
# record above (faulted runs skip the probe) must show <5% scrape
# overhead: `telemetry_overhead`, scraped ÷ unscraped requests/s, >= 0.95.
cargo test -q --test telemetry
cargo run --release --example telemetry | grep -q "telemetry smoke ok"
ratio="$(sed -nE 's/.*"telemetry_overhead": ([0-9.eE+-]+).*/\1/p' "$serve_json")"
[ -n "$ratio" ] || { echo "telemetry_overhead missing from $serve_json" >&2; exit 1; }
echo "serve: telemetry_overhead = $ratio"
awk -v r="$ratio" 'BEGIN { if (r < 0.95) { print "scraping costs more than 5% of throughput" > "/dev/stderr"; exit 1 } }'

# Chaos gate: the serving layer must survive injected shard kills, shard
# slowdowns, and native-compile failures — every ticket resolves with a
# typed result (no hangs), completed draws stay byte-identical to clean
# runs (tests/chaos.rs), and a sustained-load run under each fault still
# completes requests. Each faulted run's record must carry the
# robustness counters.
cargo test -q --test chaos
for f in "panic@shard:0" "slow@shard:0:ms=20" "compile@native"; do
  AUGUR_FAULT="$f" cargo test -q --test serve --test chaos
  AUGUR_FAULT="$f" cargo run --release -p augur-bench --bin sustained_load -- --scale 0.5 >"$serve_json"
  grep -q '"respawns"' "$serve_json"
  grep -q '"shed_rate"' "$serve_json"
  grep -q '"timeout_rate"' "$serve_json"
done
rm -f "$serve_json"

# Explain/profile smoke: the walkthrough example exercises the whole
# explain-plan + phase-profiler surface (the byte-for-byte golden for
# the LDA explain render, tests/golden/lda_explain.txt, runs as part of
# the test suite above).
cargo run --release --example explain >/dev/null

# Kill-and-resume smoke: the env-driven checkpoint path must leave a
# versioned, resumable snapshot behind (the byte-identical resume
# guarantees themselves are asserted by tests/resume.rs above).
ckpt="$(mktemp -u /tmp/augur_tier1_XXXXXX.ckpt)"
AUGUR_CKPT="$ckpt" AUGUR_CKPT_EVERY=5 \
  cargo run --release --example fault_drill >/dev/null
test -s "$ckpt"
head -1 "$ckpt" | grep -q "augur-checkpoint v1"
rm -f "$ckpt"

status_after="$(git status --porcelain)"
if [ "$status_after" != "$status_before" ]; then
  echo "tier 1 changed the working tree (git status --porcelain):" >&2
  diff <(echo "$status_before") <(echo "$status_after") >&2 || true
  exit 1
fi
