#!/usr/bin/env bash
# Tier-1 gate: the checks every change must keep green, runnable with no
# network access (the default build path has no external dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline 2>/dev/null || cargo build --release
# Run the suite sequentially and with the parallel tape executor: traces
# must be bit-identical at any worker count, so both runs see the same
# expected values.
AUGUR_THREADS=1 cargo test -q
AUGUR_THREADS=8 cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Allocation-free steady state: the counting-allocator harness must see
# zero heap allocations per sweep after warm-up on every model and both
# executor lanes (the plan lifecycle's runtime claim).
cargo test -q --test alloc_free

# Deprecated shims are gone: the `Infer`/`Sampler`/`SamplerConfig`/
# `ChainRunner` shims, the `ExecStrategy` alias, the pre-plan
# `Session::{build, from_lowered, from_lowered_explained}` constructors,
# and the root `augurv2::diag` shim were removed after their grace
# windows; the names must not reappear, and nothing may be deprecated
# instead of deleted. The native emitter prints C from the tape, so no
# file of the native backend may name the slot-resolved tree (a second
# lowering must not come back). `gone` fails on a match (a bare
# `! grep` does not trip `set -e`).
gone() { if grep -rn "$@"; then echo "removed name reappeared: $*" >&2; exit 1; fi; }
gone -E "pub (struct|type) (Infer|Sampler|SamplerConfig|ChainRunner)\b" \
    crates/augur/src crates/augur-backend/src
gone -w "ExecStrategy" crates src tests examples
gone -E "Session::(build|from_lowered|from_lowered_explained)\b|fn from_lowered" \
    crates src tests examples
gone "pub fn build(" crates/augur-backend/src/driver.rs
gone "pub mod diag" src
test ! -e src/diag.rs
gone "#\[deprecated" crates/augur/src crates/augur-backend/src src
gone -wE "RProc|RExpr|RStmt|RLValue" crates/augur-backend/src/native/

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

# Serving smoke: the service path must stay byte-identical to direct
# ChainPlan runs (including forced mid-run worker migration), and a
# bounded sustained-load run must sustain nonzero throughput with the
# structural plan-cache hit rate.
cargo test -q --test serve
cargo run --release -p augur-bench --bin sustained_load -- --scale 0.5 >/dev/null

# Telemetry gate: streaming ESS/split-R-hat must match the batch
# estimators, the exporter must serve well-formed exposition, draws must
# be byte-identical with scraping on or off, and a v4 trace must
# reconstruct a faulted request (tests/telemetry.rs). The smoke example
# scrapes a live service end to end, and the sustained_load run above —
# which must happen first, before the chaos loop rewrites
# BENCH_serve.json without the probe — must show <5% scrape overhead.
cargo test -q --test telemetry
cargo run --release --example telemetry | grep -q "telemetry smoke ok"
scripts/check_overhead.sh --serve-only

# Chaos gate: the serving layer must survive injected shard kills, shard
# slowdowns, and native-compile failures — every ticket resolves with a
# typed result (no hangs), completed draws stay byte-identical to clean
# runs (tests/chaos.rs), and a sustained-load run under each fault still
# completes requests. BENCH_serve.json must carry the robustness
# counters the faulted runs populate.
cargo test -q --test chaos
for f in "panic@shard:0" "slow@shard:0:ms=20" "compile@native"; do
  AUGUR_FAULT="$f" cargo test -q --test serve --test chaos
  AUGUR_FAULT="$f" cargo run --release -p augur-bench --bin sustained_load -- --scale 0.5 >/dev/null
done
grep -q '"respawns"' BENCH_serve.json
grep -q '"shed_rate"' BENCH_serve.json
grep -q '"timeout_rate"' BENCH_serve.json

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
