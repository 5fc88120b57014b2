// Package core implements the paper's primary contribution (§III.E): the
// exact spatiotemporal aggregation algorithm that computes, for a given
// gain/loss trade-off ratio p, a hierarchy-and-order-consistent partition
// of S×T maximizing the parametrized Information Criterion (Eq. 4).
//
// The engine is split along the paper's two phases:
//
//   - Input (input.go) is the immutable result of the input pass: the
//     gain and loss of every candidate area of A(S×T) = H(S)×I(T), stored
//     as flat arena-backed triangular matrices (one T(T+1)/2-cell triangle
//     per hierarchy node, addressed through a per-node offset table).
//     Building it costs O(|X|·|S|·|T| + |X|·|H(S)|·|T|²) time and
//     O(|H(S)|·|T|²) space; once built its matrices are never written
//     again. It keeps a memo of solved answers (memo.go), keyed by the
//     exact bits of p: internal, concurrency-safe state, bounded at a
//     fixed multiple
//     of the Input's arena bytes and counted in MemoryBytes. The solve is
//     deterministic and bit-identical across every path, so a memo hit
//     returns exactly what a solve would.
//
//   - Solver (solver.go) runs Algorithm 1, costing O(|S|·|T|³) time per
//     query. Each run claims one of the process's GOMAXPROCS solve slots,
//     the one bound on concurrent solves over every Input, and borrows
//     its scratch — pIC/cut lanes and the kernel's row thresholds, one
//     slab — from one process-wide free list, returning both when the
//     run ends; no Input or Solver retains scratch between solves, and
//     scratch in use plus idle is at most one slab per slot. A Solver
//     keeps no run state, so one Solver serves concurrent runs and any
//     number of Solvers share one Input. The solver has one kernel
//     (fused.go): runLanes carries up to MaxLanes
//     p-lanes through a single triangular
//     iteration per node — each cell reads its gain/loss and child
//     offsets once, and one relaxRow call per triangle row stores the
//     row's no-cut and spatial candidates and then scans its temporal
//     cuts cut-major over every lane (relax.go; AVX-512 and AVX2 bodies
//     on amd64) —
//     and a single-p RunContext is a one-lane block of it. Solver entry
//     points are memo-free. The Input-level entry points consult the memo
//     first: SolveContext (one p, memoizing the partition) and the sweep
//     layer (sweep.go: SweepRunContext, SweepQualityContext,
//     SignificantPsContext), which fuses only the ps it misses into lane
//     blocks, runs them over the Input's workers (forEach, the one worker
//     loop the input pass uses too) and memoizes their summaries. The
//     significant-p dichotomy answers each frontier generation as one
//     batch per round, so a repeat ladder solves only midpoints it has
//     not seen.
//
// Window changes are incremental (update.go): Input.UpdateContext — and
// the Pan/Zoom conveniences over a microscopic.Reslicer-built model —
// derives the next window's Input from the current one, copying
// everything the surviving slices pin down and recomputing only the
// O(Δ·|T|) cells per node that touch new slices, bit-identically to a
// fresh build.
//
// Resolution changes reuse work too: Input.CoarsenContext derives the
// overview one level up by slice-pair merging (microscopic.Model.
// MergePairs), bit-identical to NewInputContext on the merged model and
// free of any event-index pass. It feeds preview responses, never cache
// entries that promise equality with a scratch build at the coarse grid
// (boundary-spanning events split-then-sum differently there, so the
// last ulp can differ). The multi-resolution ladder itself — one warm
// window per visited slice-width level — lives in the serving layer's
// InputCache: timeslice names the grids (Grid/CoarsenGrid), microscopic
// merges models, core derives Inputs, and the serving layer keys the
// ladder and adds byte budgets, singleflight and progressive delivery.
//
// Every entry point that does real work takes a context (NewInputContext,
// UpdateContext, AdvanceContext, CoarsenContext, RunContext,
// QualityContext, SolveContext, SweepRunContext, SweepQualityContext,
// SignificantPsContext), because callers' work can
// become worthless mid-flight — a serving layer whose request timed out,
// a CLI hit by SIGINT. Cancellation is cooperative at hierarchy-node
// granularity: a cancelled call stops launching work, aborts in-flight
// solves at their next node boundary, joins every goroutine it spawned,
// frees every solve slot, and reports ctx.Err() with no partial
// results (a cancelled fused sweep never returns solved lanes next to
// holes). The input pass checks its ctx once per node inside the matrix
// fill, so an abandoned large-|T| build dies mid-fill. Callers with
// nothing to cancel pass context.Background() and pay a nil-check per
// node. A memo-consulting entry point called with an already-cancelled
// ctx returns ctx.Err() even when every p would hit.
package core

// CutSpatial is the cut-matrix marker for a spatial cut (the area is
// partitioned into its node's children over the same interval).
const CutSpatial = int32(-1)
