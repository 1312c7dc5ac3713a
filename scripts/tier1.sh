#!/usr/bin/env bash
# Tier-1 gate: full build + full test suite, then the concurrency-heavy
# suites again under ThreadSanitizer (-DIMON_SANITIZE=thread).
#
# Usage: scripts/tier1.sh [--no-tsan]
#
# The TSan pass rebuilds into build-tsan/ so the instrumented objects
# never mix with the regular tree. It builds the 13 test binaries that
# exercise cross-thread paths (monitor, engine, daemon, fault, metrics,
# IMA observability, tuner, executor batch, storage/buffer pool,
# parallel scan, compression and server suites) and runs them through a
# ctest name filter, then fault_test once more; the plain pass already
# covers everything else.

set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=1
if [[ "${1:-}" == "--no-tsan" ]]; then
  run_tsan=0
fi

echo "== tier-1: regular build =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"

echo "== tier-1: full test suite =="
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "== tier-1: differential fuzz sweep (25 seeded workloads) =="
(cd build && ./tests/fuzz_test --iters=25)   # leaves BENCH_fuzz.json behind

echo "== tier-1: fault injection suite =="
(cd build && ./tests/fault_test)

echo "== tier-1: differential compression sweep (100 seeded workloads) =="
# Every seeded workload is analyzed twice — raw rows vs per-template
# aggregates — and the recommendation sets must match rule-for-rule.
(cd build && ./tests/compression_test --iters=100)

echo "== tier-1: tuner apply-fault fuzz (seeded) =="
# The seeded fuzz scenario injects apply-path faults and simulated
# crashes into the closed-loop tuner; every iteration asserts the
# catalog stayed consistent with the audit trail's terminal states.
(cd build && ./tests/tuner_test --seed="${IMON_TUNER_FUZZ_SEED:-1234}" \
  --iters=15 --gtest_filter='*ApplyFaultFuzz*')

echo "== tier-1: observability overhead gate =="
# Build a second tree with the metrics layer compiled out; the overhead
# benchmark in each tree emits an elapsed_s figure, and the instrumented
# build must stay within IMON_OVERHEAD_GATE_PCT (default 5) percent of
# the compiled-out baseline. Timing on a loaded CI box is noisy, so the
# gate retries up to 3 times before failing.
cmake -B build-nometrics -S . -DIMON_METRICS=OFF >/dev/null
cmake --build build-nometrics -j"$(nproc)" --target observability_overhead common_test
# The compiled-out config must also be correct, not just fast.
(cd build-nometrics && ./tests/common_test --gtest_brief=1)

json_value() {  # json_value <file> <metric-name>
  sed -n 's/.*"name": "'"$2"'".*"value": \([0-9.eE+-]*\).*/\1/p' "$1" | head -n1
}

gate_pct="${IMON_OVERHEAD_GATE_PCT:-5}"
gate_ok=0
best_base=""
best_inst=""
for attempt in 1 2 3; do
  (cd build-nometrics && ./bench/observability_overhead >/dev/null)
  (cd build && ./bench/observability_overhead >/dev/null)
  base=$(json_value build-nometrics/BENCH_observability_baseline.json elapsed_s)
  inst=$(json_value build/BENCH_observability.json elapsed_s)
  if [[ -z "$base" || -z "$inst" ]]; then
    echo "tier-1: FAILED to read overhead benchmark output" >&2
    exit 1
  fi
  # Keep the best (least-noisy) time seen per side: scheduler noise on a
  # shared box can only delay a run, never speed it up.
  if [[ -z "$best_base" ]]; then best_base="$base"; best_inst="$inst"; fi
  best_base=$(awk -v a="$best_base" -v b="$base" 'BEGIN { print (b < a) ? b : a }')
  best_inst=$(awk -v a="$best_inst" -v b="$inst" 'BEGIN { print (b < a) ? b : a }')
  pct=$(awk -v b="$best_base" -v i="$best_inst" 'BEGIN { printf "%.2f", (i - b) / b * 100 }')
  echo "  attempt $attempt: baseline ${best_base}s, instrumented ${best_inst}s, overhead ${pct}%"
  if awk -v p="$pct" -v g="$gate_pct" 'BEGIN { exit !(p <= g) }'; then
    gate_ok=1
    break
  fi
done
if [[ "$gate_ok" != 1 ]]; then
  echo "tier-1: observability overhead above ${gate_pct}% on every attempt" >&2
  exit 1
fi

echo "== tier-1: Fig. 4 monitor overhead gate =="
# The paper's own ratio: fig4_overhead --tests=1m runs the 1m test (PK
# point selects) in rounds of 1,000-statement blocks on a monitor-
# disabled and a monitored engine (rotating order, same keys) and
# writes the median per-round ratio to BENCH_fig4.json. The full run
# measures 1m first, in the same state, so the gated ratio is the one
# EXPERIMENTS.md reports. The bound is absolute, Monitoring / Original
# <= 120 percent, best of 3 attempts; tighten it by editing the constant.
fig4_gate_pct=120
fig4_gate_ok=0
best_fig4=""
for attempt in 1 2 3; do
  (cd build && ./bench/fig4_overhead --tests=1m >/dev/null)
  fig4=$(json_value build/BENCH_fig4.json ratio_1m_monitoring_pct)
  if [[ -z "$fig4" ]]; then
    echo "tier-1: FAILED to read Fig. 4 benchmark output" >&2
    exit 1
  fi
  best_fig4=$(awk -v a="${best_fig4:-1e30}" -v b="$fig4" 'BEGIN { print (b < a) ? b : a }')
  echo "  attempt $attempt: 1m Monitoring / Original ${best_fig4}% (bound ${fig4_gate_pct}%)"
  if awk -v r="$best_fig4" -v g="$fig4_gate_pct" 'BEGIN { exit !(r <= g) }'; then
    fig4_gate_ok=1
    break
  fi
done
if [[ "$fig4_gate_ok" != 1 ]]; then
  echo "tier-1: Fig. 4 1m ratio above ${fig4_gate_pct}% on every attempt" >&2
  exit 1
fi

echo "== tier-1: executor throughput gate =="
# The vectorized-executor benchmark emits BENCH_exec.json; its batched
# throughput must stay within IMON_EXEC_GATE_PCT (default 15) percent of
# the committed baseline. Same retry-keeping-best discipline as the
# overhead gate.
exec_gate_pct="${IMON_EXEC_GATE_PCT:-15}"
exec_gate_ok=0
best_rps=""
for attempt in 1 2 3; do
  (cd build && ./bench/micro_exec_batch >/dev/null)
  rps=$(json_value build/BENCH_exec.json batched_rows_per_sec)
  if [[ -z "$rps" ]]; then
    echo "tier-1: FAILED to read executor benchmark output" >&2
    exit 1
  fi
  best_rps=$(awk -v a="${best_rps:-0}" -v b="$rps" 'BEGIN { print (b > a) ? b : a }')
  base_rps=$(json_value bench/BENCH_exec.baseline.json batched_rows_per_sec)
  rps_pct=$(awk -v b="$base_rps" -v m="$best_rps" 'BEGIN { printf "%.2f", (b - m) / b * 100 }')
  echo "  attempt $attempt: batched ${best_rps} rows/s (regression ${rps_pct}%)"
  if awk -v r="$rps_pct" -v g="$exec_gate_pct" 'BEGIN { exit !(r <= g) }'; then
    exec_gate_ok=1
    break
  fi
done
if [[ "$exec_gate_ok" != 1 ]]; then
  echo "tier-1: executor throughput regressed more than ${exec_gate_pct}% on every attempt" >&2
  exit 1
fi

echo "== tier-1: parallel scan throughput gate =="
# The morsel-driven scan benchmark emits BENCH_parallel.json with
# per-worker-count throughput. The gate compares the 1-worker scan and
# join throughput (which exercise the full morsel machinery — morsels,
# gather, partial-aggregate merge — on the serial lane) against the
# committed baseline, within IMON_PARALLEL_GATE_PCT (default 15)
# percent. Multi-worker figures are recorded in the JSON but not gated:
# on a small/oversubscribed CI box they swing far more than any real
# regression signal. The committed baseline is a conservative floor
# (min over repeated runs), so the gate trips on genuine slowdowns,
# not scheduler noise. Same retry-keeping-best discipline as above.
par_gate_pct="${IMON_PARALLEL_GATE_PCT:-15}"
par_gate_ok=0
best_s1=""
best_j1=""
for attempt in 1 2 3; do
  (cd build && ./bench/micro_parallel_scan >/dev/null)
  s1=$(json_value build/BENCH_parallel.json scan_w1_rows_per_sec)
  j1=$(json_value build/BENCH_parallel.json join_w1_rows_per_sec)
  if [[ -z "$s1" || -z "$j1" ]]; then
    echo "tier-1: FAILED to read parallel scan benchmark output" >&2
    exit 1
  fi
  best_s1=$(awk -v a="${best_s1:-0}" -v b="$s1" 'BEGIN { print (b > a) ? b : a }')
  best_j1=$(awk -v a="${best_j1:-0}" -v b="$j1" 'BEGIN { print (b > a) ? b : a }')
  base_s1=$(json_value bench/BENCH_parallel.baseline.json scan_w1_rows_per_sec)
  base_j1=$(json_value bench/BENCH_parallel.baseline.json join_w1_rows_per_sec)
  s1_pct=$(awk -v b="$base_s1" -v m="$best_s1" 'BEGIN { printf "%.2f", (b - m) / b * 100 }')
  j1_pct=$(awk -v b="$base_j1" -v m="$best_j1" 'BEGIN { printf "%.2f", (b - m) / b * 100 }')
  echo "  attempt $attempt: scan w1 ${best_s1} rows/s (regression ${s1_pct}%)," \
       "join w1 ${best_j1} rows/s (regression ${j1_pct}%)"
  if awk -v a="$s1_pct" -v c="$j1_pct" -v g="$par_gate_pct" \
       'BEGIN { exit !(a <= g && c <= g) }'; then
    par_gate_ok=1
    break
  fi
done
if [[ "$par_gate_ok" != 1 ]]; then
  echo "tier-1: parallel scan throughput regressed more than ${par_gate_pct}% on every attempt" >&2
  exit 1
fi

echo "== tier-1: parallel hash-join build gate =="
# The partitioned-build benchmark emits BENCH_join.json. Same
# machine-relative discipline as the scan gate: the 1-worker join
# throughput (which runs the full chunk/partition/fold machinery on
# the serial lane) is gated against the committed baseline within
# IMON_JOIN_GATE_PCT (default 15) percent; the w8 figure and the
# build speedup are recorded but not gated, because they measure the
# hardware more than the code on a small CI box.
join_gate_pct="${IMON_JOIN_GATE_PCT:-15}"
join_gate_ok=0
best_jb1=""
for attempt in 1 2 3; do
  (cd build && ./bench/micro_parallel_join >/dev/null)
  jb1=$(json_value build/BENCH_join.json join_w1_rows_per_sec)
  if [[ -z "$jb1" ]]; then
    echo "tier-1: FAILED to read parallel join benchmark output" >&2
    exit 1
  fi
  best_jb1=$(awk -v a="${best_jb1:-0}" -v b="$jb1" 'BEGIN { print (b > a) ? b : a }')
  base_jb1=$(json_value bench/BENCH_join.baseline.json join_w1_rows_per_sec)
  jb1_pct=$(awk -v b="$base_jb1" -v m="$best_jb1" 'BEGIN { printf "%.2f", (b - m) / b * 100 }')
  echo "  attempt $attempt: join build w1 ${best_jb1} rows/s (regression ${jb1_pct}%)"
  if awk -v a="$jb1_pct" -v g="$join_gate_pct" 'BEGIN { exit !(a <= g) }'; then
    join_gate_ok=1
    break
  fi
done
if [[ "$join_gate_ok" != 1 ]]; then
  echo "tier-1: parallel join throughput regressed more than ${join_gate_pct}% on every attempt" >&2
  exit 1
fi

echo "== tier-1: workload compression gate =="
# The compression benchmark emits BENCH_compress.json. Two absolute
# bounds: the per-template history at 100x execution volume must stay
# within 25% of the raw history's bytes, and template-path analyzer
# latency must stay sublinear in that volume (<= 20x growth against
# ~100x more raw data). The committed baseline additionally bounds
# template-path latency regressions within IMON_COMPRESS_GATE_PCT
# (default 50 — the figure is milliseconds-scale and noisy on a shared
# box). Same retry-keeping-best discipline as the gates above.
compress_gate_pct="${IMON_COMPRESS_GATE_PCT:-50}"
compress_gate_ok=0
best_clat=""
for attempt in 1 2 3; do
  (cd build && ./bench/micro_compression >/dev/null)
  ratio=$(json_value build/BENCH_compress.json bytes_ratio_100x)
  growth=$(json_value build/BENCH_compress.json template_latency_growth_100x)
  clat=$(json_value build/BENCH_compress.json template_latency_ms_100x)
  if [[ -z "$ratio" || -z "$growth" || -z "$clat" ]]; then
    echo "tier-1: FAILED to read compression benchmark output" >&2
    exit 1
  fi
  best_clat=$(awk -v a="${best_clat:-1e30}" -v b="$clat" 'BEGIN { print (b < a) ? b : a }')
  base_clat=$(json_value bench/BENCH_compress.baseline.json template_latency_ms_100x)
  clat_pct=$(awk -v b="$base_clat" -v m="$best_clat" 'BEGIN { printf "%.2f", (m - b) / b * 100 }')
  echo "  attempt $attempt: bytes ratio ${ratio}, latency growth ${growth}x," \
       "template latency ${best_clat}ms (regression ${clat_pct}%)"
  if awk -v r="$ratio" -v g="$growth" -v p="$clat_pct" -v gp="$compress_gate_pct" \
       'BEGIN { exit !(r <= 0.25 && g <= 20 && p <= gp) }'; then
    compress_gate_ok=1
    break
  fi
done
if [[ "$compress_gate_ok" != 1 ]]; then
  echo "tier-1: workload compression gate failed on every attempt" >&2
  exit 1
fi

echo "== tier-1: metrics history gate =="
# The flight-recorder microbench emits BENCH_history.json. Record
# throughput (per-point inserts with same-tick merge) and registry-sweep
# latency (the daemon's per-poll Sample cost) are gated against the
# committed conservative baseline within IMON_HISTORY_GATE_PCT (default
# 50 — microsecond-scale figures swing on a shared box). Same
# retry-keeping-best discipline as the gates above.
hist_gate_pct="${IMON_HISTORY_GATE_PCT:-50}"
hist_gate_ok=0
best_rops=""
best_smic=""
for attempt in 1 2 3; do
  (cd build && ./bench/micro_history >/dev/null)
  rops=$(json_value build/BENCH_history.json record_ops_per_sec)
  smic=$(json_value build/BENCH_history.json sample_micros)
  if [[ -z "$rops" || -z "$smic" ]]; then
    echo "tier-1: FAILED to read metrics history benchmark output" >&2
    exit 1
  fi
  best_rops=$(awk -v a="${best_rops:-0}" -v b="$rops" 'BEGIN { print (b > a) ? b : a }')
  best_smic=$(awk -v a="${best_smic:-1e30}" -v b="$smic" 'BEGIN { print (b < a) ? b : a }')
  base_rops=$(json_value bench/BENCH_history.baseline.json record_ops_per_sec)
  base_smic=$(json_value bench/BENCH_history.baseline.json sample_micros)
  rops_pct=$(awk -v b="$base_rops" -v m="$best_rops" 'BEGIN { printf "%.2f", (b - m) / b * 100 }')
  smic_pct=$(awk -v b="$base_smic" -v m="$best_smic" 'BEGIN { printf "%.2f", (m - b) / b * 100 }')
  echo "  attempt $attempt: record ${best_rops}/s (regression ${rops_pct}%)," \
       "sweep ${best_smic}us (regression ${smic_pct}%)"
  if awk -v r="$rops_pct" -v s="$smic_pct" -v g="$hist_gate_pct" \
       'BEGIN { exit !(r <= g && s <= g) }'; then
    hist_gate_ok=1
    break
  fi
done
if [[ "$hist_gate_ok" != 1 ]]; then
  echo "tier-1: metrics history gate failed on every attempt" >&2
  exit 1
fi

echo "== tier-1: network server loopback smoke =="
# imond --smoke binds an ephemeral loopback port, drives 8 concurrent
# clients through the wire protocol against an NREF point-select mix,
# checks remote results equal embedded execution, and drains cleanly.
(cd build && ./src/server/imond --smoke)

echo "== tier-1: network server throughput gate =="
# The wire-protocol load bench emits BENCH_server.json: 1000 held
# connections driving NREF point selects end to end (client -> epoll ->
# request queue -> executor -> frames back). Gated against the committed
# conservative baseline within IMON_SERVER_GATE_PCT (default 40 — full
# network round-trips swing widely on a shared box). The bench itself
# exits nonzero on any request error, dropped connection, or remote vs
# embedded fingerprint divergence, so correctness is enforced on every
# attempt; the gate additionally pins fingerprint_match == 1.
server_gate_pct="${IMON_SERVER_GATE_PCT:-40}"
server_gate_ok=0
best_srps=""
for attempt in 1 2 3; do
  (cd build && ./bench/micro_server >/dev/null)
  srps=$(json_value build/BENCH_server.json point_select_rps)
  sfp=$(json_value build/BENCH_server.json fingerprint_match)
  if [[ -z "$srps" || -z "$sfp" ]]; then
    echo "tier-1: FAILED to read server benchmark output" >&2
    exit 1
  fi
  if ! awk -v f="$sfp" 'BEGIN { exit !(f == 1) }'; then
    echo "tier-1: remote results diverged from embedded execution" >&2
    exit 1
  fi
  best_srps=$(awk -v a="${best_srps:-0}" -v b="$srps" 'BEGIN { print (b > a) ? b : a }')
  base_srps=$(json_value bench/BENCH_server.baseline.json point_select_rps)
  srps_pct=$(awk -v b="$base_srps" -v m="$best_srps" 'BEGIN { printf "%.2f", (b - m) / b * 100 }')
  echo "  attempt $attempt: ${best_srps} req/s (regression ${srps_pct}%), fingerprints identical"
  if awk -v r="$srps_pct" -v g="$server_gate_pct" 'BEGIN { exit !(r <= g) }'; then
    server_gate_ok=1
    break
  fi
done
if [[ "$server_gate_ok" != 1 ]]; then
  echo "tier-1: server throughput regressed more than ${server_gate_pct}% on every attempt" >&2
  exit 1
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== tier-1: ThreadSanitizer build =="
  cmake -B build-tsan -S . -DIMON_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$(nproc)" --target \
    monitor_test monitor_concurrency_test engine_test daemon_test fault_test \
    common_test ima_observability_test tuner_test exec_batch_test \
    storage_test parallel_scan_test pipeline_test compression_test server_test

  echo "== tier-1: concurrency suites under TSan =="
  (cd build-tsan && ctest --output-on-failure -j"$(nproc)" \
    -R 'Monitor|MonitorConcurrency|Database|Differential|Daemon|Fault|Metrics|ImaObservability|Tuner|ExecBatch|ParallelScan|Pipeline|BufferPool|Compression|SamplingDeterminism|Log2Buckets|Server')

  echo "== tier-1: fault injection under TSan =="
  (cd build-tsan && ./tests/fault_test)
fi

echo "== tier-1: OK =="
