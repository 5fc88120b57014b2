package core

import (
	"context"
	"sort"

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

// SweepRunContext answers one query per entry of ps and returns the
// partitions in input order. A p whose partition the Input's memo holds
// is answered from it; the remaining ps are solved fused into lane
// blocks (solveLanes) and their summaries memoized.
// Results are bit-identical to solving each p with its own RunContext.
// Returned partitions may be shared with other callers and must not be
// mutated.
//
// An already-cancelled ctx returns ctx.Err() even when every p hits. Once
// ctx is cancelled mid-solve no further lane block starts, every
// in-flight block aborts at its next node-level check, every worker
// goroutine is drained, every solve slot is freed, and the call
// returns ctx.Err() with no partial result slice — callers never see a
// sweep that is half partitions, half holes.
func (in *Input) SweepRunContext(ctx context.Context, ps []float64) ([]*partition.Partition, error) {
	es, err := in.answer(ctx, ps, true)
	if err != nil {
		return nil, err
	}
	out := make([]*partition.Partition, len(es))
	for i, e := range es {
		out[i] = e.pt
	}
	return out, nil
}

// SweepQualityContext is SweepRunContext reduced to quality-curve
// samples; any memoized answer, summary or partition, is a hit.
func (in *Input) SweepQualityContext(ctx context.Context, ps []float64) ([]QualityPoint, error) {
	es, err := in.answer(ctx, ps, false)
	if err != nil {
		return nil, err
	}
	out := make([]QualityPoint, len(es))
	for i, e := range es {
		out[i] = e.q
	}
	return out, nil
}

// answer returns one memo entry per entry of ps: the memoized one where
// the memo can answer (it must hold the partition when wantPt is set),
// otherwise a fresh solve carrying both summary and partition. The
// misses are solved in one solveLanes sweep and only their summaries are
// memoized, so a later SolveContext at such a p still runs a one-lane
// solve.
func (in *Input) answer(ctx context.Context, ps []float64, wantPt bool) ([]memoEntry, error) {
	if err := validatePs(ps); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]memoEntry, len(ps))
	var miss []float64
	var missAt []int // index into ps of each miss
	for i, p := range ps {
		if e, ok := in.memo.get(p, wantPt); ok {
			if e.q.Signature == "" { // a SolveContext partition, not yet summarized
				e.q = qualityOf(p, e.pt)
				in.memo.put(p, e)
			}
			out[i] = e
			continue
		}
		miss = append(miss, p)
		missAt = append(missAt, i)
	}
	if len(miss) == 0 {
		return out, nil
	}
	pts, err := in.solveLanes(ctx, miss)
	if err != nil {
		return nil, err
	}
	for m, pt := range pts {
		e := memoEntry{q: qualityOf(miss[m], pt), pt: pt}
		in.memo.put(miss[m], memoEntry{q: e.q})
		out[missAt[m]] = e
	}
	return out, nil
}

// solveLanes solves one query per entry of ps (validated, non-empty),
// fused into lane blocks against this shared Input, and returns the
// partitions in input order. One Solver runs the blocks over the Input's
// workers (forEach); with more than one block its per-run subtree
// parallelism is off, since cross-block parallelism already saturates
// the cores. Within a block one triangular iteration per node answers
// every lane. It bypasses the memo; a cancelled ctx yields ctx.Err() and
// no partitions.
func (in *Input) solveLanes(ctx context.Context, ps []float64) ([]*partition.Partition, error) {
	out := make([]*partition.Partition, len(ps))
	lanes := laneWidth(len(ps), in.opt.Workers)
	blocks := (len(ps) + lanes - 1) / lanes
	s := in.NewSolver()
	if blocks > 1 {
		s.Workers = 1
	}
	err := forEach(ctx, in.opt.Workers, blocks, func(_, b int) {
		lo := b * lanes
		hi := min(lo+lanes, len(ps))
		// runLanes fails only on a cancelled ctx, which forEach reports.
		_ = s.runLanes(ctx, ps[lo:hi], out[lo:hi])
	})
	if err != nil {
		return nil, err
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
// generation contributes its midpoint, the whole batch is answered by
// one SweepQualityContext call, and the next generation is built from
// the results. The midpoints are dyadic points fixed by eps's sampling
// depth, so a repeat dichotomy on the same Input finds them memoized and
// each round solves only the midpoints it has not seen. A frontier generation is exactly one level of the sequential
// recursion tree, and whether a gap subdivides depends only on its
// endpoints' signatures — never on exploration order — so the sampled p
// set, and therefore the returned point set, is identical to the plain
// recursive dichotomy's. Unlike a chain of dependent bisections, each
// round is one wide data-parallel solve: the lanes fuse across the batch
// and the blocks spread over the Input's workers.
//
// A cancelled ctx aborts the current round's fused sweep at its next
// node-level check, launches no further round, frees every solve slot
// and returns ctx.Err() — never a partially explored ladder, and
// never a memoized one either: an already-cancelled ctx fails even when
// every point would hit.
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
