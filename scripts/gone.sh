#!/usr/bin/env bash
# Removed names stay removed. Tier 1 (scripts/tier1.sh) and CI both run
# this one list; a removal that must not come back adds its check here.
#
# The `Infer`/`Sampler`/`SamplerConfig`/`ChainRunner` shims, the
# `ExecStrategy` alias, the pre-plan `Session::{build, from_lowered,
# from_lowered_explained}` constructors, and the root `augurv2::diag`
# shim were removed after their grace windows; the names must not
# reappear, and nothing may be deprecated instead of deleted. The native
# emitter prints C from the tape, so no file of the native backend may
# name the slot-resolved tree (a second lowering must not come back). The
# simulated GPU runs Blk IL on the reference interpreter, so the GPU tape
# lane and its device charge stay deleted, and gpu-sim's property tests
# run on the in-tree Prng rather than proptest. `Plan::emit` is the only
# code printer: the second (OpenMP) C printer, the symbol manifests, the
# facade's `emit_native`/`emit_unit` and the `augur::codegen` shim stay
# deleted, as do gpu-sim's kernel log and the criterion benches. No crate
# has a `proptest-tests` feature: every property suite runs on the
# in-tree Prng. The single-pass throughput lane (`sweep_throughput`, its
# committed BENCH_sweep.json, the 5% baseline file and
# `check_overhead.sh`, the only reader of the AUGUR_OVERHEAD_GATE knob)
# stays deleted: perfbench times throughput, and each of its gates is a
# tier-1 test. Blk optimization flags are a plan argument (`plan_opt`),
# so the ignored `SessionConfig::opt_flags` stays deleted, and only the
# session sets the engine's op-class profiling switch. augur-serve
# formats its own v4 request records, so the backend's `RequestSpan` and
# `TraceSink::write_request` stay deleted; the service writes its
# requeue, task-accessor, cancel and worker-liveness bookkeeping once,
# so the per-kind copies (`retry_or_fail`, `task_request_id`,
# `task_attempts`, `cancel_task`) and the private copy of the
# `augur_workers_alive` gauge stay deleted. Scalar gradients are scalar
# registers of the tape, so the native printer's scalar view home
# (`Home::Scalar`) and its `gN` gradient locals stay deleted. The state
# is one owned cell arena next to one shared data region, so the
# per-buffer `Arc` store (`Vec<Arc<Vec<f64>>>`), the refcount swap that
# adopted a worker's scratch (`adopt_buffer`) and the unused
# `State::snapshot`/`restore` pair stay deleted. Only write-partitioned
# `Par` loops run on the worker pool, and workers copy back their own
# rows, so the worker write log, its replay and the `AtmPar` dispatch
# flag stay deleted. HMC and NUTS run one value-and-gradient procedure
# per position, so no `Step::Hmc`/`CompiledStep::Hmc` and no
# `hmc_update`/`nuts_update` takes a separate log-density and gradient
# procedure again. The checks grep neither `.github/` nor `scripts/`,
# where these lines themselves live.
#
# `gone` fails on a match (a bare `! grep` does not trip `set -e`).
set -euo pipefail
cd "$(dirname "$0")/.."

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
gone -wE "TBlk|TBlkProc|blk_tapes|run_blk_tape|dispatch_blk_chunks|dispatch_sum_chunks|tape_dispatch|tape_dispatch_ns|tape_instrs" \
    crates src tests examples
gone proptest crates/gpu-sim
gone -wE "CodegenUnit|SymbolInfo|SymbolKind|KernelManifest|sweep_overhead_ns|emit_native|emit_unit|symbols_of|EmittedModule|kernel_log" \
    crates src tests examples
test ! -e crates/augur/src/codegen.rs
test ! -d crates/augur-bench/benches
gone -w proptest-tests Cargo.toml crates/*/Cargo.toml perfbench/Cargo.toml
test ! -e crates/augur-bench/src/bin/sweep_throughput.rs
test ! -e BENCH_sweep.json
test ! -e scripts/bench_baseline.json
test ! -e scripts/check_overhead.sh
gone "pub opt_flags" crates/augur-backend/src/driver.rs
gone "pub profile_ops" crates/augur-backend/src
gone -wE "RequestSpan|write_request" crates/augur-backend
gone -E "fn (retry_or_fail|task_request_id|task_attempts|cancel_task)\b|workers_alive: AtomicUsize" \
    crates/augur-serve
gone -E 'Home::Scalar|\bg\{' crates/augur-backend/src/native
gone -E 'Vec<Arc<Vec<f64>>>|adopt_buffer|fn snapshot\(' crates/augur-backend/src/state.rs
gone -wE "WriteOp|write_log|replay_writes|log_cell|log_fill|log_vals|log_written_range|rng_free" \
    crates/augur-backend
gone -E 'Hmc \{[^}]*\b(ll|grad|ll_proc|grad_proc)\b' crates/augur-low/src crates/augur-backend/src
gone -Pzo 'Hmc \{[^}]*\bgrad_proc\b' crates/augur-low/src/lower.rs
gone -Pzo 'fn (hmc|nuts)_update\([^)]*\bgrad_proc\b' crates/augur-backend/src/mcmc.rs
