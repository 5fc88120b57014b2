#!/usr/bin/env bash
# Run the root benchmark suite and the Algorithm 1 kernel benchmarks of
# internal/core, and emit BENCH_core.json (benchmark name →
# ns/op, allocs/op, bytes/op, plus any custom metric like
# BenchmarkSweepCancel's cancel_ns_per_op: time-to-return after cancelling
# a mid-flight sweep) so successive PRs leave a comparable perf trajectory
# in the repo. The suite covers the engine (input pass, Run, the fused
# multi-p sweeps BenchmarkSweepFused_{K4,K16} vs BenchmarkSweepSingle_K16,
# the kernel alone on a prebuilt Input BenchmarkSolveLanes_{K1,K8,K16},
# the input pass's row fill alone BenchmarkGainLossRow_{Go,AVX2}, one
# node's rows through each relaxRow body BenchmarkRelaxRow_{Go,AVX2,AVX512},
# the batched dichotomy BenchmarkSignificantPs{,_Batched}, cooperative
# cancellation), the trace load (BenchmarkLoadIndex_RAM: perfbench
# explore's 0.9M-event binary trace opened and indexed in RAM per op;
# BenchmarkLoadIndex_AutoSpill: the same with an IndexAuto threshold at
# half its events, so the load spills to the disk store mid-stream), the
# windowing families (BenchmarkWindowPan/Zoom), the out-of-core store
# (BenchmarkStoreBuild, BenchmarkStoreBuild_TimeOrdered: a 1.27M-event
# time-sorted trace that spills, BenchmarkStoreWindowRead with
# chunks/op + readB/op, and BenchmarkWindowPan_DiskIndex — the disk twin
# of the incremental pan), live ingestion (BenchmarkFollowTick: one
# Extend + live-window advance, the follower's steady-state tick, vs
# BenchmarkFollowTick_Rebuild; BenchmarkFollowTick_Long: the same tick
# after 2,000 ticks of history) and the serving layer
# (BenchmarkServerPan_{Hit,Derived,Scratch}: one aggregate request
# through the HTTP handler per cache build path). A subset of
# these are gated against regressions by scripts/benchdiff.sh.
#
#   scripts/bench.sh                       # every benchmark, 1 iteration
#   BENCH='BenchmarkWindow' scripts/bench.sh   # a subset
#   BENCHTIME=10x scripts/bench.sh             # more iterations per point
#   OUT=/tmp/b.json scripts/bench.sh           # alternate output path
#
# The JSON also carries a "_provenance" entry (CPU model, GOMAXPROCS as
# the benchmark names' -N suffix reports it, Go version, commit), so each
# figure says where it was taken.
#
# One iteration keeps this a smoke run (CI uses it to prove every
# benchmark still executes); for publishable numbers use BENCHTIME=10x or
# a duration like BENCHTIME=1s.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern="${BENCH:-.}"
benchtime="${BENCHTIME:-1x}"
out="${OUT:-BENCH_core.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# internal/core contributes only its kernel benchmarks unless BENCH asks
# for more — the Algorithm 1 row kernel (BenchmarkSolveLanes_*) and the
# input pass's row fill with each gainLossRow body
# (BenchmarkGainLossRow_{Go,AVX2}) and one node's rows with each relaxRow
# body (BenchmarkRelaxRow_{Go,AVX2,AVX512}; a body the CPU lacks is
# skipped and leaves no entry); its input-pass and Run benchmarks stay
# out of the baseline.
core_pattern="${BENCH:-^Benchmark(SolveLanes|GainLossRow|RelaxRow)_}"

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem . | tee "$tmp"
go test -run '^$' -bench "$core_pattern" -benchtime "$benchtime" -benchmem ./internal/core | tee -a "$tmp"

# Provenance: strip quotes and backslashes so each value is a plain
# JSON string.
jstr() { tr -d '"\\' | tr -s ' \t' ' ' | sed 's/^ //; s/ $//'; }
cpu="$(grep -m1 '^model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | jstr || true)"
[ -n "$cpu" ] || cpu="$(uname -m)"
gover="$(go env GOVERSION | jstr)"
commit="$(git describe --always --dirty 2>/dev/null || echo unknown)"

awk -v cpu="$cpu" -v gover="$gover" -v commit="$commit" '
BEGIN { printf "{\n"; procs = 1 }
/^Benchmark/ {
  name = $1
  if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
  sub(/-[0-9]+$/, "", name)
  ns = ""; allocs = ""; bytes = ""; cancel = ""
  for (i = 2; i <= NF; i++) {
    if ($i == "ns/op")        ns = $(i-1)
    if ($i == "allocs/op")    allocs = $(i-1)
    if ($i == "B/op")         bytes = $(i-1)
    if ($i == "cancel-ns/op") cancel = $(i-1)
  }
  if (ns != "") {
    if (n++) printf ",\n"
    printf "  \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s, \"bytes_per_op\": %s", \
      name, ns, (allocs == "" ? 0 : allocs), (bytes == "" ? 0 : bytes)
    if (cancel != "") printf ", \"cancel_ns_per_op\": %s", cancel
    printf "}"
  }
}
END {
  if (n++) printf ",\n"
  printf "  \"_provenance\": {\"cpu\": \"%s\", \"gomaxprocs\": %d, \"go\": \"%s\", \"commit\": \"%s\"}\n}\n", \
    cpu, procs, gover, commit
}
' "$tmp" > "$out"

echo "wrote $out"
