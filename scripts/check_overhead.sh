#!/usr/bin/env bash
# Profile-overhead gate for the phase profiler (DESIGN.md § 5.10).
#
# Two assertions against a freshly generated BENCH_sweep.json:
#
#   1. `profile_overhead` is recorded for every benchmark model (the
#      bench actually measured the observability stack);
#   2. the timers-off tape throughput (`tape_untimed_sweeps_per_s`) is
#      within 5% of the recorded baseline tape throughput
#      (`scripts/bench_baseline.json`, captured before the profiler
#      landed) — i.e. the hot path does not pay for the profiler when
#      `SamplerConfig::timers` is off.
#
# Wall-clock gates are only meaningful on hardware comparable to where
# the baseline was captured; export AUGUR_OVERHEAD_GATE=off to keep the
# recording but skip the 5% comparison (e.g. on a throttled runner).
#
# With --serve-only, gates the serving telemetry plane instead: the JSON
# record an unfaulted sustained_load run prints on stdout must carry
# `telemetry_overhead` — the ratio of scraped to unscraped requests/s —
# and that ratio must stay >= 0.95 (the "<5% scrape overhead" contract,
# DESIGN.md § 5.15). AUGUR_OVERHEAD_GATE=off skips the ratio check here
# too.
#
# Usage: check_overhead.sh [fresh.json] [baseline.json]
#        check_overhead.sh --serve-only serve.json
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--serve-only" ]; then
  serve="${2:?usage: check_overhead.sh --serve-only SERVE_JSON (sustained_load stdout)}"
  ratio="$(grep '"telemetry_overhead"' "$serve" | sed -E 's/.*: ([0-9.eE+-]+).*/\1/')"
  [ -n "$ratio" ] || { echo "FAIL: telemetry_overhead missing from $serve (faulted run?)"; exit 1; }
  echo "serve: telemetry_overhead (scraped/unscraped rps) = $ratio"
  if [ "${AUGUR_OVERHEAD_GATE:-on}" = "off" ]; then
    echo "AUGUR_OVERHEAD_GATE=off: skipping the 5% scrape-overhead comparison"
    exit 0
  fi
  awk -v r="$ratio" 'BEGIN {
    if (r < 0.95) {
      printf "FAIL: scraping costs more than 5%% of sustained throughput (ratio %.3f)\n", r
      exit 1
    }
  }'
  echo "scrape-overhead gate: OK"
  exit 0
fi

fresh="${1:-BENCH_sweep.json}"
baseline="${2:-scripts/bench_baseline.json}"

# Each model's record is one line of the (hand-rolled, stable) JSON.
field() { # file model key -> numeric value
  grep "\"$2\":" "$1" | sed -E "s/.*\"$3\": ([0-9.eE+-]+).*/\1/"
}

for model in lda hgmm hlr; do
  overhead="$(field "$fresh" "$model" profile_overhead)"
  [ -n "$overhead" ] || { echo "FAIL: $model missing profile_overhead in $fresh"; exit 1; }
  echo "$model: profile_overhead = $overhead"
done

if [ "${AUGUR_OVERHEAD_GATE:-on}" = "off" ]; then
  echo "AUGUR_OVERHEAD_GATE=off: skipping the 5% throughput comparison"
  exit 0
fi

for model in lda hgmm hlr; do
  got="$(field "$fresh" "$model" tape_untimed_sweeps_per_s)"
  want="$(field "$baseline" "$model" tape_sweeps_per_s)"
  awk -v got="$got" -v want="$want" -v m="$model" 'BEGIN {
    ratio = got / want
    printf "%s: timers-off %.2f sweeps/s vs baseline %.2f (ratio %.3f)\n", m, got, want, ratio
    if (ratio < 0.95) {
      printf "FAIL: %s timers-off throughput regressed more than 5%% vs baseline\n", m
      exit 1
    }
  }'
done
echo "profile-overhead gate: OK"
