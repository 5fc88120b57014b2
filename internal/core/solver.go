package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ocelotl/internal/measures"
	"ocelotl/internal/partition"
)

// Solver owns the mutable per-query state of Algorithm 1: the pIC and cut
// triangular matrices for one optimization run. A Solver only ever reads
// its Input, so any number of Solvers run concurrently against one shared
// Input — this is the paper's interactivity model taken to multi-core:
// build the input once, answer every p in parallel.
//
// A single Solver is NOT safe for concurrent use of itself (RunContext
// reuses its scratch); create one Solver per in-flight query, or borrow
// one per query from the Input's pool (AcquireSolverContext).
type Solver struct {
	in  *Input
	pic []float64
	cut []int32

	// Lane arenas of the fused multi-p path (RunManyContext): one K-wide
	// strip of pIC/cut state per triangle cell. Grown on first fused use,
	// retained like the single-p scratch; see fused.go.
	lanePic []float64
	laneCut []int32
	// pooled marks solvers created through the Input's bounded pool, whose
	// retained scratch (lanes included) counts toward Input.MemoryBytes.
	pooled bool

	// Workers caps Algorithm 1's parallelism across independent sibling
	// subtrees within this one run (default: the Input's worker setting;
	// 1 forces the sequential path). Results are bit-identical for any
	// value. The p-sweeps set this to 1 because cross-query parallelism
	// already saturates the pool.
	Workers int
}

// NewSolver allocates a Solver (the O(|H(S)|·|T|²) pIC/cut scratch) bound
// to this input.
func (in *Input) NewSolver() *Solver {
	return &Solver{
		in:      in,
		pic:     make([]float64, len(in.gain)),
		cut:     make([]int32, len(in.gain)),
		Workers: in.workers,
	}
}

// RunContext executes Algorithm 1 for trade-off ratio p ∈ [0,1] and
// returns the optimal partition, with its total gain, loss and pIC. Ties
// are resolved in favor of aggregation (strict improvement is required to
// cut), exactly as in the paper's pseudocode.
//
// ctx is checked once per hierarchy node before its triangular iteration
// (the O(|T|²·|T|) unit of work), so a cancelled query returns ctx.Err()
// within one node's worth of computation — and, in the parallel path,
// after every in-flight subtree goroutine has been joined, so no work
// outlives the call. A cancelled run returns no partition; the solver's
// scratch is left in an undefined state but is fully overwritten by the
// next run, so the solver stays reusable (and poolable).
func (s *Solver) RunContext(ctx context.Context, p float64) (*partition.Partition, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("core: p = %v out of [0,1]", p)
	}
	ep := s.in.effectiveP(p)
	iterate := func(id int) { s.iterateCells(id, ep) }
	if s.Workers > 1 {
		sem := make(chan struct{}, s.Workers)
		s.walkParallel(ctx, s.in.rootID, sem, iterate)
	} else {
		s.walk(ctx, s.in.rootID, iterate)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pt := &partition.Partition{P: p}
	s.recover(s.in.rootID, 0, s.in.T-1, pt)
	pt.PIC = measures.PIC(ep, pt.Gain, pt.Loss)
	pt.Sort()
	return pt, nil
}

// QualityContext runs the algorithm at p and summarizes the result
// (cancellation as in RunContext).
func (s *Solver) QualityContext(ctx context.Context, p float64) (QualityPoint, error) {
	pt, err := s.RunContext(ctx, p)
	if err != nil {
		return QualityPoint{}, err
	}
	return qualityOf(p, pt), nil
}

// walkParallel runs iterate over the hierarchy with sibling subtrees
// processed concurrently: a node's triangular iteration only reads its
// children's completed pIC matrices, so the tree decomposes into
// independent tasks joined bottom-up. The semaphore caps in-flight
// goroutines; results are identical to the sequential pass. Cancellation
// is checked per node: a cancelled ctx stops descending and skips the
// iteration, but every spawned goroutine is still joined before
// returning. Both the single-p kernel (iterateCells at a fixed p) and the
// fused multi-p kernel (iterateCellsLanes) run through this traversal.
func (s *Solver) walkParallel(ctx context.Context, id int, sem chan struct{}, iterate func(id int)) {
	if ctx.Err() != nil {
		return
	}
	children := s.in.meta[id].children
	if len(children) > 1 {
		var wg sync.WaitGroup
		for _, c := range children {
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func(c int32) {
					defer wg.Done()
					defer func() { <-sem }()
					s.walkParallel(ctx, int(c), sem, iterate)
				}(c)
			default:
				// Pool saturated: recurse inline rather than queue.
				s.walkParallel(ctx, int(c), sem, iterate)
			}
		}
		wg.Wait()
	} else {
		for _, c := range children {
			s.walkParallel(ctx, int(c), sem, iterate)
		}
	}
	if ctx.Err() != nil {
		return
	}
	iterate(id)
}

// walk is the sequential traversal of procedure
// node.COMPUTEOPTIMALPARTITION(p) of Algorithm 1: children first (spatial
// recursion), then the node's triangular iteration — single-p or fused —
// from the last line to the first, evaluating for each cell the "no cut",
// "spatial cut" and every "temporal cut" alternative. The context is
// checked once per node, bounding the latency of a cancel to one
// triangular iteration.
func (s *Solver) walk(ctx context.Context, id int, iterate func(id int)) {
	if ctx.Err() != nil {
		return
	}
	for _, c := range s.in.meta[id].children {
		s.walk(ctx, int(c), iterate)
	}
	if ctx.Err() != nil {
		return
	}
	iterate(id)
}

// iterateCells is the triangular iteration of Algorithm 1 for one node,
// assuming every child's pIC matrix is already computed. The temporal-cut
// scan keeps the right-interval index as a running offset (triIndex is an
// affine walk along a fixed j), so the inner loop is add-compare only.
func (s *Solver) iterateCells(id int, p float64) {
	in := s.in
	T := in.T
	q := 1 - p
	off := in.offs[id]
	gain := in.gain[off : off+in.cells]
	loss := in.loss[off : off+in.cells]
	pic := s.pic[off : off+in.cells]
	cuts := s.cut[off : off+in.cells]
	childOffs := in.meta[id].childOffs
	for i := T - 1; i >= 0; i-- {
		base := i*T - i*(i-1)/2  // triIndex(i, i)
		nextBase := base + T - i // triIndex(i+1, i+1)
		rowPic := pic[base:]
		for j := i; j < T; j++ {
			idx := base + (j - i)
			best := p*gain[idx] - q*loss[idx] // no cut
			bestCut := int32(j)
			if len(childOffs) > 0 { // spatial cut?
				var sum float64
				for _, co := range childOffs {
					sum += s.pic[co+idx]
				}
				if improves(sum, best) {
					best, bestCut = sum, CutSpatial
				}
			}
			// Temporal cuts: left part pic[(i,cut)] is rowPic[cut-i];
			// right part pic[(cut+1,j)] starts at triIndex(i+1, j) =
			// nextBase + (j-i-1) and advances by T-cut-2 per step of cut.
			rIdx := nextBase + (j - i - 1)
			for cut := i; cut < j; cut++ {
				if v := rowPic[cut-i] + pic[rIdx]; improves(v, best) {
					best, bestCut = v, int32(cut)
				}
				rIdx += T - cut - 2
			}
			pic[idx], cuts[idx] = best, bestCut
		}
	}
}

// recover walks the sequence of cuts from (node, [i,j]) down to the
// aggregates of the optimal partition, accumulating gain/loss totals.
func (s *Solver) recover(id, i, j int, pt *partition.Partition) {
	in := s.in
	idx := in.offs[id] + in.triIndex(i, j)
	switch c := s.cut[idx]; {
	case c == int32(j): // aggregate of the partition
		pt.Areas = append(pt.Areas, partition.Area{Node: in.meta[id].node, I: i, J: j})
		pt.Gain += in.gain[idx]
		pt.Loss += in.loss[idx]
	case c == CutSpatial:
		for _, child := range in.meta[id].children {
			s.recover(int(child), i, j, pt)
		}
	default: // temporal cut at c
		s.recover(id, i, int(c), pt)
		s.recover(id, int(c)+1, j, pt)
	}
}
