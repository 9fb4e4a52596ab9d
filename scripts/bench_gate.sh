#!/usr/bin/env bash
# Solver performance gate: re-runs solver_bench and fails if the fresh cold
# 1-thread wall time (the min over its repeats) regresses more than
# BENCH_GATE_THRESHOLD (default 1.25, i.e. +25%) against the committed
# BENCH_solver.json.
#
#   ./scripts/bench_gate.sh
#
# The committed files are the tracked baselines. Every fresh run is written
# to a temporary file (`--out`) and compared with its committed counterpart;
# the working tree is never touched. Machine-to-machine variance is real — the threshold is
# deliberately loose, and BENCH_GATE_THRESHOLD can be raised for a known-slow
# runner. A *faster* machine trivially passes; the gate only catches changes
# that make the solver substantially slower on comparable hardware.
#
# It also fails when a fresh serve_bench run serves v2 locate slower than v1
# locate (see the serve section below); everything else it checks
# only warns.

set -euo pipefail
cd "$(dirname "$0")/.."

threshold="${BENCH_GATE_THRESHOLD:-1.25}"
baseline=BENCH_solver.json
fresh_dir="$(mktemp -d)"
trap 'rm -rf "$fresh_dir"' EXIT
fresh="$fresh_dir/BENCH_solver.json"

if [ ! -f "$baseline" ]; then
  echo "bench_gate: no committed $baseline to compare against" >&2
  exit 1
fi

# The canonical emitter writes one field per line in a fixed order, with the
# cold 1-thread phase first; the first min_ms / stop_reason belong to it.
min_ms_1() { grep -m1 '"min_ms"' "$1" | tr -cd '0-9.'; }
stop_reason_1() { grep -m1 '"stop_reason"' "$1" | sed 's/.*: *"\([^"]*\)".*/\1/'; }
# Top-level scalar field (key before value, value may be fractional).
scalar() { grep -m1 "\"$2\"" "$1" | sed 's/.*: *//' | tr -cd '0-9.'; }

old_ms="$(min_ms_1 "$baseline")"
old_stop="$(stop_reason_1 "$baseline" || true)"
old_speedup="$(scalar "$baseline" max_thread_speedup || true)"
echo "bench_gate: committed cold 1-thread min wall time: ${old_ms} ms (threshold x${threshold})"

cargo run --release -p taf-bench --bin solver_bench -- --out "$fresh"

new_ms="$(min_ms_1 "$fresh")"
new_stop="$(stop_reason_1 "$fresh" || true)"
new_speedup="$(scalar "$fresh" max_thread_speedup || true)"
echo "bench_gate: fresh cold 1-thread min wall time: ${new_ms} ms"

# Convergence is part of the recorded contract: once the committed baseline
# says the solver converges, a fresh run that stops on max_iters is a real
# behavioral regression (the timing comparison would be meaningless anyway —
# the two runs did different amounts of work). Hard-fail it. A baseline that
# never converged keeps the old advisory behavior.
if [ "$new_stop" = "max_iters" ] && [ "$old_stop" = "converged" ]; then
  echo "bench_gate: FAIL — solver no longer converges (stop_reason went" \
       "converged -> max_iters); check final_rel_delta in $fresh" >&2
  exit 1
elif [ "$new_stop" = "max_iters" ]; then
  echo "bench_gate: note — solver stops at max_iters (as in the committed baseline)"
fi

if awk -v new="$new_ms" -v old="$old_ms" -v t="$threshold" \
    'BEGIN { exit !(new <= old * t) }'; then
  echo "bench_gate: OK (${new_ms} ms <= ${old_ms} ms x ${threshold})"
else
  echo "bench_gate: FAIL — solver regressed: ${new_ms} ms > ${old_ms} ms x ${threshold}" >&2
  exit 1
fi

# Parallel-scaling watchdog (warn-only): a >25% drop in the max-thread speedup
# against the committed baseline means the kernels lost their fan-out, even if
# single-thread wall time is fine. Warn-only because CI containers routinely
# have fewer cores than the thread counts benched (the JSON flags those phases
# `oversubscribed`) — scaling numbers from such a box are scheduling noise.
if [ -n "$old_speedup" ] && [ -n "$new_speedup" ]; then
  if awk -v new="$new_speedup" -v old="$old_speedup" 'BEGIN { exit !(new >= old * 0.75) }'; then
    echo "bench_gate: scaling OK (max-thread speedup ${new_speedup}x vs ${old_speedup}x committed)"
  else
    echo "bench_gate: WARNING — max-thread speedup dropped >25%:" \
         "${new_speedup}x vs ${old_speedup}x committed; check threads_available" \
         "and the oversubscribed flags in $fresh" >&2
  fi
fi

# Warm-start visibility: surface the recorded cold/warm iteration counts so a
# log reader sees the adaptive-refresh win (the CI assertion lives in the
# bench-smoke job).
cold_iters="$(scalar "$fresh" cold_iterations || true)"
warm_iters="$(scalar "$fresh" warm_iterations || true)"
if [ -n "$cold_iters" ] && [ -n "$warm_iters" ]; then
  echo "bench_gate: warm re-solve ${warm_iters} iters vs ${cold_iters} cold"
fi

# ---------------------------------------------------------------------------
# Serve-throughput gate: re-runs serve_bench in the full profile the committed
# baseline records (~2 s; --quick's 800 requests per phase are too few to rank
# v1 against v2). Hard failure when the fresh run's v2 locate throughput is
# below the same run's v1 locate throughput: v2's codec is far cheaper than
# v1's JSON, so v2 losing means its transport regressed (e.g. a frame split
# over several socket writes). Comparing within one run cancels host-speed
# swings. Against the committed baseline it only warns when v1 or v2 drops
# below baseline/threshold: absolute throughput on a loaded CI runner is far
# noisier than solver wall time.
# ---------------------------------------------------------------------------

serve_baseline=BENCH_serve.json
serve_fresh="$fresh_dir/BENCH_serve.json"
# Strip through the key and colon before keeping digits — the key itself
# contains digits ("v1_...") that would otherwise prefix the value.
field() { grep -m1 "\"$2\"" "$1" | sed 's/.*: *//' | tr -cd '0-9.'; }

old_v1=""
old_v2=""
if [ -f "$serve_baseline" ] && grep -q '"v1_locate_req_per_s"' "$serve_baseline"; then
  old_v1="$(field "$serve_baseline" v1_locate_req_per_s)"
  old_v2="$(field "$serve_baseline" v2_locate_req_per_s)"
  echo "bench_gate: committed serve throughput: v1 ${old_v1} req/s, v2 ${old_v2} req/s (warn below /${threshold})"
else
  echo "bench_gate: no committed serve throughput baseline — skipping the regression warning"
fi
cargo run --release -p taf-bench --bin serve_bench -- --out "$serve_fresh"
new_v1="$(field "$serve_fresh" v1_locate_req_per_s)"
new_v2="$(field "$serve_fresh" v2_locate_req_per_s)"
echo "bench_gate: fresh serve throughput: v1 ${new_v1} req/s, v2 ${new_v2} req/s"
if [ -n "$old_v1" ]; then
  for proto in v1 v2; do
    old_var="old_$proto"; new_var="new_$proto"
    if awk -v new="${!new_var}" -v old="${!old_var}" -v t="$threshold" \
        'BEGIN { exit !(new * t >= old) }'; then
      echo "bench_gate: serve $proto OK (${!new_var} req/s vs ${!old_var} req/s baseline)"
    else
      echo "bench_gate: WARNING — serve $proto throughput regressed:" \
           "${!new_var} req/s < ${!old_var} req/s / ${threshold}" >&2
    fi
  done
fi
if awk -v v2="${new_v2:-0}" -v v1="${new_v1:-0}" 'BEGIN { exit !(v1 > 0 && v2 >= v1) }'; then
  echo "bench_gate: serve v2 >= v1 OK (${new_v2} vs ${new_v1} locate req/s, same run)"
else
  echo "bench_gate: FAIL — v2 locate throughput ${new_v2} req/s is below v1's" \
       "${new_v1} req/s in the same run; check v2 framing (one write per message)" >&2
  exit 1
fi

# ---------------------------------------------------------------------------
# Sharding phases (warn-only): the fresh serve run must include the many-site
# sharded phase, and a fresh ingest run must show the sharded credit queues
# shedding ~nothing silently (every dropped sample gets an explicit verdict).
# Both warn rather than fail — these are correctness-shaped signals surfaced
# through the bench artifacts, and the real assertions live in the test
# batteries (shard_serving.rs, backpressure.rs).
# ---------------------------------------------------------------------------

if grep -q '"sharded"' "$serve_fresh"; then
  sharded_rps="$(field "$serve_fresh" locate_req_per_s)"
  echo "bench_gate: sharded serve phase present (${sharded_rps} locate req/s across shards)"
else
  echo "bench_gate: WARNING — the fresh serve run has no sharded many-site phase" >&2
fi

ingest_fresh="$fresh_dir/BENCH_ingest.json"
cargo run --release -p taf-bench --bin ingest_bench -- --quick --out "$ingest_fresh"
if grep -q '"sharded_credit"' "$ingest_fresh"; then
  silent="$(field "$ingest_fresh" silent_shed_fraction)"
  if awk -v s="${silent:-1}" 'BEGIN { exit !(s <= 0.05) }'; then
    echo "bench_gate: sharded ingest OK (silent shed fraction ${silent} <= 0.05)"
  else
    echo "bench_gate: WARNING — sharded credit queues shed ${silent} of samples" \
         "silently (expected <= 0.05)" >&2
  fi
else
  echo "bench_gate: WARNING — the fresh ingest run has no sharded_credit phase" >&2
fi

# ---------------------------------------------------------------------------
# Journal-cost watchdog (warn-only): the fresh ingest run must include the
# journaled phase (sharded admission with the write-ahead log on the admitted
# path), and journaling must keep the admitted rate within the gate threshold
# of the unjournaled sharded baseline from the same run. Warn-only: rate
# ratios on a loaded runner are noisy, and the durability correctness
# assertions live in crash_harness.rs / store_robustness.rs.
# ---------------------------------------------------------------------------

if grep -q '"journaled"' "$ingest_fresh"; then
  wal_ratio="$(field "$ingest_fresh" wal_admitted_ratio_vs_sharded)"
  if awk -v r="${wal_ratio:-0}" -v t="$threshold" 'BEGIN { exit !(r * t >= 1.0) }'; then
    echo "bench_gate: journaled ingest OK (admitted rate ${wal_ratio} of unjournaled baseline, >= 1/${threshold})"
  else
    echo "bench_gate: WARNING — write-ahead journaling cut the admitted rate to" \
         "${wal_ratio} of the unjournaled sharded baseline (expected >= 1/${threshold})" >&2
  fi
else
  echo "bench_gate: WARNING — the fresh ingest run has no journaled phase" >&2
fi
