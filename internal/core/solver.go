package core

import (
	"context"
	"sync"

	"ocelotl/internal/partition"
)

// Solver runs Algorithm 1 against one Input: each run borrows its
// scratch — the pIC and cut triangular matrices of its optimization, as
// K-wide lane strips so one run can answer up to MaxLanes ps at once
// (fused.go), and the row thresholds of the kernel — as one slab from a
// process-wide free list (laneSlabs), and returns it when it ends. A
// Solver keeps no run state and only ever reads its Input, so one Solver
// serves any number of concurrent runs, and any number of Solvers share
// one Input — this is the paper's interactivity model taken to
// multi-core: build the input once, answer every p in parallel. Each run
// holds one of the process's solve slots (fused.go), so at most
// GOMAXPROCS runs are in flight across every Input and a run started
// beyond that waits for a slot.
type Solver struct {
	in *Input

	// Workers caps Algorithm 1's parallelism across independent sibling
	// subtrees within each run (default: the Input's worker setting;
	// 1 forces the sequential path). Results are bit-identical for any
	// value. The p-sweeps set this to 1 when they run several lane blocks
	// at once, because cross-block parallelism already saturates the
	// cores.
	Workers int
}

// NewSolver returns a Solver bound to this input. It holds no scratch:
// each run borrows its slab.
func (in *Input) NewSolver() *Solver {
	return &Solver{in: in, Workers: in.opt.Workers}
}

// RunContext executes Algorithm 1 for trade-off ratio p ∈ [0,1] and
// returns the optimal partition, with its total gain, loss and pIC. Ties
// are resolved in favor of aggregation (strict improvement is required to
// cut), exactly as in the paper's pseudocode. It is a one-lane block of
// the fused kernel (runLanes).
//
// ctx is checked once per hierarchy node before its triangular iteration
// (the O(|T|²·|T|) unit of work), so a cancelled query returns ctx.Err()
// within one node's worth of computation — and, in the parallel path,
// after every in-flight subtree goroutine has been joined, so no work
// outlives the call. A cancelled run returns no partition and its
// slab to the free list.
func (s *Solver) RunContext(ctx context.Context, p float64) (*partition.Partition, error) {
	ps := []float64{p}
	if err := validatePs(ps); err != nil {
		return nil, err
	}
	var out [1]*partition.Partition
	if err := s.runLanes(ctx, ps, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
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

// walkParallel is the traversal of procedure
// node.COMPUTEOPTIMALPARTITION(p) of Algorithm 1: children first (spatial
// recursion), then the node's triangular iteration from the last line to
// the first, evaluating for each cell the "no cut", "spatial cut" and
// every "temporal cut" alternative. Sibling subtrees run concurrently: a
// node's triangular iteration only reads its children's completed pIC
// matrices, so the tree decomposes into independent tasks joined
// bottom-up. The semaphore caps in-flight goroutines; a nil semaphore
// recurses into every child inline in child order — the sequential pass,
// which the concurrent one reproduces bit for bit, allocation-free.
// The context is checked once per node, bounding the latency of a cancel
// to one triangular iteration: a cancelled ctx stops descending and skips
// the iteration, but every spawned goroutine is still joined before
// returning.
func (s *Solver) walkParallel(ctx context.Context, id int, sem chan struct{}, iterate func(id int)) {
	if ctx.Err() != nil {
		return
	}
	children := s.in.meta[id].children
	if sem != nil && len(children) > 1 {
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
