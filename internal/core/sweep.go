package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"ocelotl/internal/partition"
)

// QualityPoint is one sample of the quality curves: the partition computed
// at P, its aggregate count and its total gain/loss.
type QualityPoint struct {
	P         float64
	Areas     int
	Gain      float64
	Loss      float64
	Signature string
}

// qualityOf summarizes a solved partition as a quality-curve sample.
func qualityOf(p float64, pt *partition.Partition) QualityPoint {
	return QualityPoint{P: p, Areas: pt.NumAreas(), Gain: pt.Gain, Loss: pt.Loss, Signature: pt.Signature()}
}

// laneWidth picks the fused block width for a sweep of n ps over w
// workers: wide enough to amortize the DP control flow across lanes,
// never wider than needed to give every worker a block (splitting the
// sweep across idle cores beats making one core's block wider), capped at
// MaxLanes. Results are bit-identical for any width, so this is purely a
// latency choice.
func laneWidth(n, w int) int {
	if w < 1 {
		w = 1
	}
	k := (n + w - 1) / w
	if k > MaxLanes {
		k = MaxLanes
	}
	if k < 1 {
		k = 1
	}
	return k
}

// SweepRunContext solves one query per entry of ps — fused into lane
// blocks on pooled Solvers against this shared Input — and returns the
// partitions in input order. Blocks run concurrently over the worker pool
// with per-run subtree parallelism disabled (cross-block parallelism
// already saturates it); within a block one triangular iteration per node
// answers every lane. Results are bit-identical to solving each p with
// its own RunContext.
//
// Once ctx is cancelled no further lane block starts, every in-flight
// block aborts at its next node-level check, every worker goroutine is
// drained, every pooled solver is released, and the call returns
// ctx.Err() with no partial result slice — callers never see a sweep that
// is half partitions, half holes.
func (in *Input) SweepRunContext(ctx context.Context, ps []float64) ([]*partition.Partition, error) {
	if err := validatePs(ps); err != nil {
		return nil, err
	}
	out := make([]*partition.Partition, len(ps))
	if len(ps) == 0 {
		return out, nil
	}
	lanes := laneWidth(len(ps), in.workers)
	blocks := (len(ps) + lanes - 1) / lanes
	workers := in.workers
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		s, err := in.AcquireSolverContext(ctx)
		if err != nil {
			return nil, err
		}
		defer in.ReleaseSolver(s)
		// With a single block in flight the solver keeps the Input's
		// worker setting, so its subtree parallelism still applies.
		for lo := 0; lo < len(ps); lo += lanes {
			hi := lo + lanes
			if hi > len(ps) {
				hi = len(ps)
			}
			if err := s.runLanes(ctx, ps[lo:hi], out[lo:hi]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := in.AcquireSolverContext(ctx)
			if err != nil {
				errs[w] = err
				return
			}
			defer in.ReleaseSolver(s)
			s.Workers = 1
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				lo := b * lanes
				hi := lo + lanes
				if hi > len(ps) {
					hi = len(ps)
				}
				if errs[w] = s.runLanes(ctx, ps[lo:hi], out[lo:hi]); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SweepQualityContext is SweepRunContext reduced to quality-curve samples.
func (in *Input) SweepQualityContext(ctx context.Context, ps []float64) ([]QualityPoint, error) {
	pts, err := in.SweepRunContext(ctx, ps)
	if err != nil {
		return nil, err
	}
	out := make([]QualityPoint, len(pts))
	for i, pt := range pts {
		out[i] = qualityOf(ps[i], pt)
	}
	return out, nil
}

// gap is one unexplored [l, h] stretch of the dichotomy whose endpoints
// disagree; the batched frontier bisects every current gap per round.
type gap struct {
	l, h QualityPoint
}

// SignificantPsContext explores [0,1] by dichotomy and returns one
// QualityPoint per distinct optimal partition, sorted by p (each point
// carries the smallest sampled p producing that partition). This
// reproduces Ocelotl's "significant values" slider stops: between two
// consecutive returned values the optimal partition does not change (up
// to the eps resolution).
//
// The exploration is round-based: every gap of the current frontier
// generation contributes its midpoint, the whole batch is solved in one
// fused SweepRunContext call, and the next generation is built from the
// results. A frontier generation is exactly one level of the sequential
// recursion tree, and whether a gap subdivides depends only on its
// endpoints' signatures — never on exploration order — so the sampled p
// set, and therefore the returned point set, is identical to the plain
// recursive dichotomy's. Unlike a chain of dependent bisections, each
// round is one wide data-parallel solve: the lanes fuse across the batch
// and the blocks spread over the worker pool.
//
// A cancelled ctx aborts the current round's fused sweep at its next
// node-level check, launches no further round, releases every pooled
// solver and returns ctx.Err() — never a partially explored ladder.
func (in *Input) SignificantPsContext(ctx context.Context, eps float64) ([]QualityPoint, error) {
	if eps <= 0 {
		eps = 1e-4
	}
	ends, err := in.SweepQualityContext(ctx, []float64{0, 1})
	if err != nil {
		return nil, err
	}
	lo, hi := ends[0], ends[1]
	points := map[string]QualityPoint{lo.Signature: lo, hi.Signature: hi}
	expandable := func(l, h QualityPoint) bool {
		return l.Signature != h.Signature && h.P-l.P > eps
	}
	var frontier []gap
	if expandable(lo, hi) {
		frontier = append(frontier, gap{lo, hi})
	}
	for len(frontier) > 0 {
		mids := make([]float64, len(frontier))
		for i, g := range frontier {
			mids[i] = (g.l.P + g.h.P) / 2
		}
		qs, err := in.SweepQualityContext(ctx, mids)
		if err != nil {
			return nil, err
		}
		next := make([]gap, 0, 2*len(frontier))
		for i, g := range frontier {
			mid := qs[i]
			if prev, ok := points[mid.Signature]; !ok || mid.P < prev.P {
				points[mid.Signature] = mid
			}
			if expandable(g.l, mid) {
				next = append(next, gap{g.l, mid})
			}
			if expandable(mid, g.h) {
				next = append(next, gap{mid, g.h})
			}
		}
		frontier = next
	}
	return sortedPoints(points), nil
}

func sortedPoints(points map[string]QualityPoint) []QualityPoint {
	out := make([]QualityPoint, 0, len(points))
	for _, q := range points {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P < out[j].P })
	return out
}
