#!/usr/bin/env bash
# Compare a fresh benchmark run against the committed BENCH_core.json and
# fail on regressions of the named hot-path benchmarks, so a PR cannot
# silently give back the engine's headline wins (the fused p-sweep, the
# batched significant-p frontier, the incremental pan, the resolution-ladder
# zoom, the serving hit and derived-pan paths, the Table II trace read,
# microscopic build, input pass and solve, the scratch build, the O(Δ)
# follow tick at short and long history, the linear-time store build of a
# time-ordered trace).
#
#   scripts/benchdiff.sh                    # gated benches only, 5 iters, +25%
#   REGRESS_PCT=40 scripts/benchdiff.sh     # looser gate
#   CANCEL_REGRESS_PCT=300 benchdiff.sh     # looser cancel-latency gate
#   BENCHTIME=10x scripts/benchdiff.sh      # steadier fresh numbers
#   FRESH=/tmp/b.json scripts/benchdiff.sh  # reuse an existing fresh run
#   BASELINE=old.json scripts/benchdiff.sh  # alternate baseline
#
# The fresh run benches only the gated names (BENCH overrides), so the
# gate costs a fraction of a full suite run; numbers are compared against
# a baseline committed from a comparable machine — re-baseline
# BENCH_core.json deliberately when hardware or an accepted trade-off
# moves a hot path.
#
# Hot benchmarks missing from the baseline are reported and skipped (a new
# benchmark has no history); hot benchmarks missing from the fresh run
# fail (the suite lost coverage). Everything else in the two files is
# ignored — the gate is deliberately narrow so structural benchmarks can
# move freely while the user-facing latencies cannot.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${BASELINE:-BENCH_core.json}"
threshold="${REGRESS_PCT:-25}"
fresh="${FRESH:-}"

if [ ! -f "$baseline" ]; then
  echo "benchdiff: baseline $baseline not found" >&2
  exit 1
fi

# The gated hot paths: one per headline claim of the perf trajectory.
hot="
BenchmarkSignificantPs
BenchmarkSignificantPs_Batched
BenchmarkSweepFused_K4
BenchmarkSweepFused_K16
BenchmarkWindowPan_Incremental
BenchmarkWindowPan_DiskIndex
BenchmarkWindowZoom_Incremental
BenchmarkWindowZoomOut_Incremental
BenchmarkServerPan_Hit
BenchmarkServerPan_Derived
BenchmarkServerZoom_Ladder
BenchmarkServerPan_Scratch
BenchmarkTable2_Read_C
BenchmarkTable2_Microscopic_C
BenchmarkTable2_AggregationInput_C
BenchmarkTable2_AggregationRun_C
BenchmarkFollowTick
BenchmarkFollowTick_Long
BenchmarkStoreBuild_TimeOrdered
"
# BenchmarkSweepCancel is gated on its cancel_ns_per_op metric instead of
# ns/op (its ns/op mostly measures the deliberate let-it-start delay).
# The threshold is looser — the metric sits in the tens of microseconds,
# where scheduler noise dwarfs 25% — but bounds the promptness promise:
# cancellation must stay within one fused node iteration, not drift to
# milliseconds.
cancel_bench="BenchmarkSweepCancel"
cancel_threshold="${CANCEL_REGRESS_PCT:-150}"

if [ -z "$fresh" ]; then
  fresh="$(mktemp)"
  trap 'rm -f "$fresh"' EXIT
  pattern="$(printf '%s$|' $hot $cancel_bench)"
  BENCH="${BENCH:-${pattern%|}}" BENCHTIME="${BENCHTIME:-5x}" OUT="$fresh" ./scripts/bench.sh >/dev/null
fi

ns_of() { # ns_of <file> <name> — empty when absent
  grep -o "\"$2\": {\"ns_per_op\": [0-9]*" "$1" | grep -o '[0-9]*$' || true
}

cancel_of() { # cancel_of <file> <name> — empty when absent
  grep -o "\"$2\": {[^}]*\"cancel_ns_per_op\": [0-9]*" "$1" | grep -o '[0-9]*$' || true
}

fail=0
for name in $hot; do
  base_ns="$(ns_of "$baseline" "$name")"
  new_ns="$(ns_of "$fresh" "$name")"
  if [ -z "$base_ns" ]; then
    echo "SKIP  $name: not in baseline (no history yet)"
    continue
  fi
  if [ -z "$new_ns" ]; then
    echo "FAIL  $name: missing from the fresh run (lost benchmark coverage)"
    fail=1
    continue
  fi
  limit=$((base_ns + base_ns * threshold / 100))
  if [ "$new_ns" -gt "$limit" ]; then
    echo "FAIL  $name: ${new_ns} ns/op vs baseline ${base_ns} (> +${threshold}%)"
    fail=1
  else
    delta=$(((new_ns - base_ns) * 100 / base_ns))
    echo "ok    $name: ${new_ns} ns/op vs ${base_ns} (${delta}%)"
  fi
done

base_c="$(cancel_of "$baseline" "$cancel_bench")"
new_c="$(cancel_of "$fresh" "$cancel_bench")"
if [ -n "$base_c" ] && [ -n "$new_c" ]; then
  limit=$((base_c + base_c * cancel_threshold / 100))
  if [ "$new_c" -gt "$limit" ]; then
    echo "FAIL  $cancel_bench: cancel ${new_c} ns vs baseline ${base_c} (> +${cancel_threshold}%)"
    fail=1
  else
    echo "ok    $cancel_bench: cancel ${new_c} ns vs ${base_c}"
  fi
elif [ -z "$base_c" ]; then
  echo "SKIP  $cancel_bench: no cancel_ns_per_op in baseline"
else
  echo "FAIL  $cancel_bench: cancel_ns_per_op missing from the fresh run"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "benchdiff: hot-path regression beyond +${threshold}% — investigate or re-baseline BENCH_core.json deliberately" >&2
  exit 1
fi
echo "benchdiff: hot paths within +${threshold}% of $baseline"
