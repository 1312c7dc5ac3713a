#!/usr/bin/env bash
# Tier-1 gate: full build + full test suite, the seeded sweeps and the
# benchmark gates, then the concurrency-heavy suites again under
# ThreadSanitizer (-DIMON_SANITIZE=thread).
#
# Usage: scripts/tier1.sh [--no-tsan]
#
# The TSan pass rebuilds into build-tsan/ so the instrumented objects
# never mix with the regular tree. It builds the test binaries that
# exercise cross-thread paths (tsan_suites below) and runs their ctest
# entries; the plain pass already covers everything else.

set -euo pipefail
cd "$(dirname "$0")/.."
# The committed baselines were recorded at scale 1.
unset IMON_BENCH_SCALE

run_tsan=1
if [[ "${1:-}" == "--no-tsan" ]]; then
  run_tsan=0
fi

# One row per gated metric. Each bench runs from build/ and writes its
# JSON there.
#   bound  a plain number bounds the value itself; N% bounds its
#          regression from `ref`, in percent of ref.
#   keep   best: the best value over the attempts so far is checked
#            (scheduler noise on a shared box can only slow a run, never
#            speed it up);
#          each: each attempt's own value is checked (keep-best would
#            loosen a ratio bound);
#          once: each attempt's own value, and a miss fails at once.
#   ref    a committed baseline, or a file in another build tree: then
#          each attempt runs the bench as $pairs pairs of that tree and
#          build/, alternating which side runs first, and the value is
#          the median of the per-pair ratios (build over ref) of every
#          pair so far, against a ref of 1. Drift between the two
#          processes cancels, and a retry adds pairs to the estimate
#          instead of drawing a fresh one.
# Relative bounds are wide where the figure is milli- or microsecond
# scale (compression, history) or a full network round trip (server).
# The scan and join gates take the 1-worker figures: the pipelines run
# in full on one lane, while multi-worker figures measure the host more
# than the code on a small CI box.
gates=(
  #bench                  json                     metric                       better bound keep ref
  "observability_overhead BENCH_observability.json elapsed_s                    lower  5%    each build-nometrics/BENCH_observability_baseline.json"
  "fig4_overhead          BENCH_fig4.json          ratio_1m_monitoring_pct      lower  120   best -"
  "micro_exec_batch       BENCH_exec.json          batched_rows_per_sec         higher 15%   best bench/BENCH_exec.baseline.json"
  "micro_parallel_scan    BENCH_parallel.json      scan_w1_rows_per_sec         higher 15%   best bench/BENCH_parallel.baseline.json"
  "micro_parallel_scan    BENCH_parallel.json      join_w1_rows_per_sec         higher 15%   best bench/BENCH_parallel.baseline.json"
  "micro_parallel_join    BENCH_join.json          join_w1_rows_per_sec         higher 15%   best bench/BENCH_join.baseline.json"
  "micro_compression      BENCH_compress.json      bytes_ratio_100x             lower  0.25  each -"
  "micro_compression      BENCH_compress.json      template_latency_growth_100x lower  20    each -"
  "micro_compression      BENCH_compress.json      template_latency_ms_100x     lower  50%   best bench/BENCH_compress.baseline.json"
  "micro_history          BENCH_history.json       record_ops_per_sec           higher 50%   best bench/BENCH_history.baseline.json"
  "micro_history          BENCH_history.json       sample_micros                lower  50%   best bench/BENCH_history.baseline.json"
  "micro_server           BENCH_server.json        point_select_rps             higher 40%   best bench/BENCH_server.baseline.json"
  "micro_server           BENCH_server.json        fingerprint_match            higher 1     once -"
)
# Pairs per attempt for a row whose ref is in another build tree.
pairs=5

# The test binaries built under TSan and the ctest names they run.
tsan_suites=(
  #target                  ctest name pattern
  "monitor_test             Monitor"
  "monitor_concurrency_test MonitorConcurrency"
  "engine_test              Database|Differential"
  "daemon_test              Daemon"
  "fault_test               Fault"
  "common_test              Metrics|Log2Buckets"
  "ima_observability_test   ImaObservability"
  "tuner_test               Tuner"
  "exec_batch_test          ExecBatch"
  "storage_test             BufferPool"
  "parallel_scan_test       ParallelScan"
  "pipeline_test            Pipeline"
  "compression_test         Compression|SamplingDeterminism"
  "server_test              Server"
)

json_value() {  # json_value <file> <metric-name>: the value; tier-1 fails without one
  local v
  v=$(sed -n 's/.*"name": "'"$2"'".*"value": \([0-9.eE+-]*\).*/\1/p' "$1" | head -n1)
  [[ -n "$v" ]] || { echo "tier-1: FAILED to read $2 from $1" >&2; exit 1; }
  echo "$v"
}

better_of() {  # better_of higher|lower <a> <b>: the better value
  awk -v d="$1" -v a="$2" -v b="$3" 'BEGIN { print (d == "higher" ? b > a : b < a) ? b : a }'
}

# judge higher|lower <bound> <value> [<ref-value>]: prints the value
# against its bound; fails when the value is past it.
judge() {
  awk -v d="$1" -v g="$2" -v v="$3" -v r="${4:-}" 'BEGIN {
    if (g !~ /%$/) {
      printf "%s (bound %s)", v, g
      exit !(d == "higher" ? v + 0 >= g + 0 : v + 0 <= g + 0)
    }
    p = sprintf("%.2f", (d == "higher" ? r - v : v - r) / r * 100)
    printf "%s (regression %s%% from %s, bound %s)", v, p, r, g
    exit !(p + 0 <= substr(g, 1, length(g) - 1) + 0)
  }'
}

median() {  # median <values...>
  printf '%s\n' "$@" | sort -g | awk '{ a[n++] = $1 }
    END { print n % 2 ? a[int(n / 2)] : (a[n / 2 - 1] + a[n / 2]) / 2 }'
}

# gate <bench> [args...]: runs the bench up to 3 times, until every row
# of `gates` for it passes in the same attempt.
gate() {
  local bench=$1 attempt i tree row name json metric better bound keep ref
  local v r failed report verdict pair_tree="" runs=1 order=()
  local -A best=() best_ref=() ratios=()
  for row in "${gates[@]}"; do
    read -r name json metric better bound keep ref <<<"$row"
    [[ "$name" != "$bench" || "$ref" != build*/* ]] || pair_tree=${ref%%/*} runs=$pairs
  done
  shift
  echo "== tier-1: $bench gate =="
  for attempt in 1 2 3; do
    for ((i = 0; i < runs; ++i)); do
      order=(build)
      if [[ -n "$pair_tree" ]]; then  # alternate which side runs first
        order=("$pair_tree" build)
        ((i % 2 == 0)) || order=(build "$pair_tree")
      fi
      for tree in "${order[@]}"; do
        (cd "$tree" && "./bench/$bench" "$@" >/dev/null)
      done
      for row in "${gates[@]}"; do
        read -r name json metric better bound keep ref <<<"$row"
        [[ "$name" == "$bench" && "$ref" == build*/* ]] || continue
        v=$(json_value "build/$json" "$metric")
        r=$(json_value "$ref" "$metric")
        ratios[$metric]+=" $(awk -v v="$v" -v r="$r" 'BEGIN { print v / r }')"
      done
    done
    failed="" report=""
    for row in "${gates[@]}"; do
      read -r name json metric better bound keep ref <<<"$row"
      [[ "$name" == "$bench" ]] || continue
      r=""
      if [[ "$ref" == build*/* ]]; then
        # shellcheck disable=SC2086  # one word per pair
        v=$(median ${ratios[$metric]}) r=1
      else
        v=$(json_value "build/$json" "$metric")
      fi
      [[ "$keep" != best ]] || v=$(better_of "$better" "${best[$metric]:-$v}" "$v")
      best[$metric]=$v
      if [[ "$ref" != - && "$ref" != build*/* ]]; then
        # Keeping the best of a committed baseline leaves it as it is.
        r=$(json_value "$ref" "$metric")
        r=$(better_of "$better" "${best_ref[$metric]:-$r}" "$r")
        best_ref[$metric]=$r
      fi
      if ! verdict=$(judge "$better" "$bound" "$v" "$r"); then
        [[ "$keep" != once ]] || { echo "tier-1: $bench $metric $verdict, not retried" >&2; exit 1; }
        failed+=" $metric"
      fi
      [[ -z "${ratios[$metric]:-}" ]] || verdict+=" [pair ratios:${ratios[$metric]}]"
      report+=" $metric $verdict;"
    done
    echo "  attempt $attempt:${report%;}"
    [[ -n "$failed" ]] || return 0
  done
  echo "tier-1: $bench gate failed on every attempt:$failed" >&2
  exit 1
}

echo "== tier-1: regular build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"

echo "== tier-1: full test suite =="
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "== tier-1: differential fuzz sweep (25 seeded workloads) =="
(cd build && ./tests/fuzz_test --iters=25)   # leaves BENCH_fuzz.json behind

echo "== tier-1: differential compression sweep (100 seeded workloads) =="
# Every seeded workload's raw rows, grouped by template, must give
# exactly the per-template aggregates the analyzer reads.
(cd build && ./tests/compression_test --iters=100)

echo "== tier-1: tuner apply-fault fuzz (seeded) =="
# The seeded fuzz scenario injects apply-path faults and simulated
# crashes into the closed-loop tuner; every iteration asserts the
# catalog stayed consistent with the audit trail's terminal states.
(cd build && ./tests/tuner_test --seed=1234 --iters=15 --gtest_filter='*ApplyFaultFuzz*')

echo "== tier-1: compiled-out metrics build =="
# The observability gate's reference side: the same overhead bench with
# the metrics layer compiled out. That config must also be correct, not
# just fast: the monitor's commit, the IMA tables and the daemon's
# registry mirrors have compiled-out branches.
nometrics_tests=(common_test monitor_test ima_test daemon_test)
cmake -B build-nometrics -S . -DIMON_METRICS=OFF >/dev/null
cmake --build build-nometrics -j"$(nproc)" --target observability_overhead "${nometrics_tests[@]}"
for t in "${nometrics_tests[@]}"; do
  (cd build-nometrics && "./tests/$t" --gtest_brief=1)
done

gate observability_overhead
# The paper's own ratio: the 1m test (PK point selects) in rounds of
# 1,000-statement blocks on a monitor-disabled and a monitored engine;
# the full fig4_overhead run measures 1m first, in the same state, so
# the gated ratio is the one EXPERIMENTS.md reports.
gate fig4_overhead --tests=1m
gate micro_exec_batch
gate micro_parallel_scan
gate micro_parallel_join
gate micro_compression
gate micro_history

echo "== tier-1: network server loopback smoke =="
# imond --smoke binds an ephemeral loopback port, drives 8 concurrent
# clients through the wire protocol against an NREF point-select mix,
# checks remote results equal embedded execution, and drains cleanly.
(cd build && ./src/server/imond --smoke)

# micro_server itself exits nonzero on any request error, dropped
# connection, or remote vs embedded fingerprint divergence.
gate micro_server

if [[ "$run_tsan" == 1 ]]; then
  tsan_targets=("${tsan_suites[@]%% *}")
  tsan_pattern=$(IFS='|'; echo "${tsan_suites[*]##* }")

  echo "== tier-1: ThreadSanitizer build =="
  cmake -B build-tsan -S . -DIMON_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$(nproc)" --target "${tsan_targets[@]}"

  echo "== tier-1: concurrency suites under TSan =="
  # Sanitizer builds set no per-test TIMEOUT; the slowest TSan test takes
  # about 5 minutes on 4 cores, so this bound only catches a hang.
  (cd build-tsan && ctest --output-on-failure -j"$(nproc)" --timeout 1800 \
    -R "$tsan_pattern")
fi

echo "== tier-1: OK =="
