// Package ocelotl reproduces "A Spatiotemporal Data Aggregation Technique
// for Performance Analysis of Large-scale Execution Traces" (Dosimont,
// Lamarche-Perrin, Schnorr, Huard, Vincent — IEEE CLUSTER 2014): an exact
// algorithm that partitions an execution trace's space×time plane into
// homogeneous aggregates by maximizing a parametrized information
// criterion, plus the full pipeline around it — trace model and codecs,
// microscopic description, unidimensional baselines, NAS-PB/Grid'5000
// workload simulation, and the §IV visualization.
//
// The engine serves interactive exploration in both of its dimensions:
// one immutable core.Input answers any number of concurrent p-queries,
// at most GOMAXPROCS solving at once in the process, and many-p
// exploration is fused —
// the solver's one Algorithm 1 kernel carries up to core.MaxLanes p-lanes
// through a single triangular iteration per hierarchy node, finishing
// each triangle row in one call of a row kernel — no-cut, spatial and
// every temporal cut, cut-major (AVX-512 or AVX2 on amd64, picked once
// from the CPU's features, a portable Go body elsewhere) — a single-p
// RunContext being a one-lane block (SweepRunContext and
// SweepQualityContext split their p list into lane blocks over the
// worker pool; SignificantPsContext is a batched dichotomy solving each
// frontier generation in one fused call), bit-identical per lane to
// independent single-p solves. Each Input memoizes its solved answers by
// the exact bits of p, so a repeated p or a repeated ladder over a
// window skips the solve. Window changes are incremental —
// microscopic.Reslicer keeps a per-resource event index and
// core.Input.UpdateContext rebuilds only what the new slices touch, so a
// pan costs O(changed slices), not a fresh input pass; resolution
// changes go through the serving layer's ladder of warm grid levels.
// Every engine entry point that does real work takes a context
// (NewInputContext, UpdateContext, RunContext, SweepRunContext,
// SignificantPsContext, …) and cancels cooperatively at hierarchy-node
// granularity: it drains its goroutines, frees its solve slots, and
// returns ctx.Err() with no partial results, so queries whose answer
// stops mattering stop costing. Solves are bounded per process, not per
// window: at most GOMAXPROCS runs are in flight over every Input, and a
// run past that waits for a slot (or for its ctx to be cancelled).
//
// The serving layer turns that into a long-lived service. The packages
// layer traceio → eventstore → microscopic → core → server: traceio
// streams trace files, eventstore (below microscopic, no dependency on
// it) is the out-of-core option — a chunked, per-resource, time-ordered
// on-disk event index written once at load so window builds read only
// the chunks they overlap — microscopic indexes each loaded trace into
// one Reslicer (RAM for small traces, the eventstore past a size
// threshold, bit-identical either way),
// core builds immutable per-window Inputs and answers p-queries, and
// internal/server (the HTTP/JSON front-end behind cmd/ocelotld) keeps a
// window-keyed, byte-budgeted LRU cache of those Inputs whose misses are
// derived incrementally from the nearest cached overlapping window —
// with singleflight deduplication, per-request build-path logging and
// /debug/cachestats counters. Request contexts flow through the whole
// serve path: a timed-out or disconnected request answers 499, counts
// toward the "aborted" stat, and abandons its engine work; a singleflight
// build runs on its flight's own goroutine and context, and dies only
// when every request that joined it has cancelled. A trace still being
// written can be followed (internal/live, one engine behind the daemon's
// follow mode and `ocelotl -follow`): a write to the file wakes its
// follower, which ingests the new events and slides a live window whose
// answers stay bit-identical to a scratch build; the poll interval is
// only the fallback for a file that cannot be watched.
//
// The root package holds the benchmark harness (bench_test.go) that
// regenerates every table and figure of the paper's evaluation, plus the
// interactive-windowing and scaling families; scripts/bench.sh distills a
// run into BENCH_core.json for cross-PR comparison. The library lives
// under internal/ and the executables under cmd/. See README.md for the
// package tour and quickstart.
package ocelotl
