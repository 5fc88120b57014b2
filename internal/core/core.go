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
//     O(|H(S)|·|T|²) space; once built it is never written again.
//
//   - Solver (solver.go) owns the pIC/cut scratch of one Algorithm 1
//     query, costing O(|S|·|T|³) time per RunContext. Any number of
//     Solvers share one Input concurrently, and one Solver can fuse many
//     queries: RunManyContext (fused.go) carries up to MaxLanes p-lanes
//     through a single triangular iteration per node — each cell reads
//     its gain/loss and child offsets once and updates every lane in the
//     inner add-compare loop — bit-identically per lane to separate
//     single-p solves. The sweep layer (sweep.go: SweepRunContext,
//     SweepQualityContext, SignificantPsContext) builds on it: sweeps
//     partition their ps into lane blocks over the worker pool, and the
//     significant-p dichotomy solves each frontier generation as one
//     fused batch per round.
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
// UpdateContext, AdvanceContext, CoarsenContext, AcquireSolverContext,
// RunContext, QualityContext, RunManyContext, SweepRunContext,
// SweepQualityContext, SignificantPsContext), because callers' work can
// become worthless mid-flight — a serving layer whose request timed out,
// a CLI hit by SIGINT. Cancellation is cooperative at hierarchy-node
// granularity: a cancelled call stops launching work, aborts in-flight
// solves at their next node boundary, joins every goroutine it spawned,
// returns every pooled solver, and reports ctx.Err() with no partial
// results (a cancelled fused sweep never returns solved lanes next to
// holes). The input pass checks its ctx once per node inside the matrix
// fill, so an abandoned large-|T| build dies mid-fill. Callers with
// nothing to cancel pass context.Background() and pay a nil-check per
// node.
package core

import "ocelotl/internal/measures"

// CutSpatial is the cut-matrix marker for a spatial cut (the area is
// partitioned into its node's children over the same interval).
const CutSpatial = int32(-1)

// improves is measures.Improves: a strict comparison with a relative
// rounding-noise tolerance, so ties keep the aggregate as in Algorithm 1.
func improves(candidate, best float64) bool { return measures.Improves(candidate, best) }
