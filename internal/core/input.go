package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ocelotl/internal/failpoint"
	"ocelotl/internal/hierarchy"
	"ocelotl/internal/measures"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/partition"
)

// nodeMeta carries the per-node hierarchy bookkeeping of §III.E's data
// structure. The matrices themselves live in the Input's flat arenas.
type nodeMeta struct {
	node *hierarchy.Node
	size int // |S_k|

	// children are child node IDs; childOffs are the children's base
	// offsets into the matrix arenas, precomputed so the spatial-cut sum
	// of Algorithm 1 needs no indirection.
	children  []int32
	childOffs []int
}

// Input is the immutable result of the input pass (Eqs. 1–3): every
// candidate area's gain and loss, plus the per-node slice rows and prefix
// sums they were computed from. Building it costs
// O(|X|·|S|·|T| + |X|·|H(S)|·|T|²); once built it is never mutated, so any
// number of Solvers (and the read-only query methods below) may share one
// Input concurrently. This split is what makes the paper's "instantaneous
// interaction" scale across cores: one input pass serves every p the
// analyst explores.
//
// Storage is arena-backed: each matrix kind is a single flat []float64
// holding one T(T+1)/2-cell upper triangle per hierarchy node, indexed by
// the per-node offset table offs.
//
// Every cell (i, j) is computed as a running sum over the slice-local rows
// slc* restricted to [i, j], never as a difference of global prefix sums.
// That makes each cell's float value depend only on the slices it covers —
// shift-invariant across windows — which is what lets Update reuse the
// sub-triangle shared with a previous window bit-identically (see
// update.go).
type Input struct {
	Model *microscopic.Model
	T, X  int

	meta   []nodeMeta // indexed by hierarchy node ID
	rootID int

	cells int   // triangle cells per node: T(T+1)/2
	offs  []int // node ID → base offset into the matrix arenas

	// Triangular-matrix arenas (gain and loss of every area, Eq. 2/3).
	gain, loss []float64

	// Slice-local arenas, row base slcBase(id, x), length |T| each:
	// slcD[t]   = Σ_{s∈S_k} d_x(s,t)
	// slcRho[t] = Σ_{s∈S_k} ρ_x(s,t)
	// slcRL[t]  = Σ_{s∈S_k} ρ_x·log₂ρ_x
	// These are the shift-invariant per-slice aggregates the matrices are
	// summed from, and the unit of reuse on a window change.
	slcD, slcRho, slcRL []float64

	// Prefix-sum arenas over the slice rows, row base prefBase(id, x),
	// length |T|+1 each; serve the O(1) range queries of Describe.
	prefD, prefRho, prefRL []float64

	durPref []float64 // prefix sums of d(t), length |T|+1

	normalize          bool
	workers            int
	poolBound          int
	rootGain, rootLoss float64 // full-aggregation gain/loss (normalization)

	// The solver pool recycles Solver scratch (the O(|H(S)|·|T|²) pIC/cut
	// arenas) across queries and bounds how many pooled Solvers can exist
	// at once: solverFree holds idle solvers, and creating a new one
	// claims a slot of solverTokens, so at most poolBound solvers are ever
	// live and AcquireSolverContext blocks once they are all in flight.
	// That caps the peak pooled scratch memory at poolBound·O(|H(S)|·|T|²)
	// no matter how many queries race. The pool is internal concurrency-safe state,
	// not a mutation of the aggregation results.
	solverFree   chan *Solver
	solverTokens chan struct{}
	// solversLive counts the pooled solvers created so far (≤ poolBound).
	// Unlike a sync.Pool, the bounded pool retains its solvers for the
	// Input's lifetime, so their scratch is part of the Input's resident
	// cost and MemoryBytes includes it.
	solversLive atomic.Int64
	// laneBytes totals the fused-lane scratch (RunManyContext's K-wide
	// pIC/cut strips) grown by pooled solvers, which the pool likewise
	// retains.
	laneBytes atomic.Int64
}

// Options tunes the input pass and the solvers derived from it.
type Options struct {
	// Normalize rescales gain and loss by their full-aggregation values
	// before combining them, so that p has a comparable meaning across
	// traces of different sizes (as the Ocelotl tool does). Internally it
	// is an exact reparametrization of p; the set of reachable partitions
	// is unchanged.
	Normalize bool
	// Workers bounds the parallelism of the input pass, of Algorithm 1
	// across independent subtrees, and of the p-sweeps (SweepRunContext,
	// SignificantPsContext): 0 picks GOMAXPROCS, 1 forces the sequential paths.
	// Results are bit-identical for any worker count — each node's
	// matrices depend only on its own slice rows (input pass) and on its
	// children's completed matrices (optimization), and sweep results are
	// keyed by p, so no decomposition has shared mutable state.
	Workers int
	// SolverPoolBound caps how many pooled Solvers (each holding
	// O(|H(S)|·|T|²) pIC/cut scratch) an Input keeps alive at once: 0
	// defaults to the resolved worker count (i.e. GOMAXPROCS). Once the
	// bound is reached, AcquireSolverContext blocks until a solver is
	// released, so the sweep's peak scratch memory is capped even under
	// unbounded query concurrency. Solvers allocated directly with NewSolver are
	// outside the pool and uncounted.
	SolverPoolBound int
}

// workers resolves the effective parallelism.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// FailpointInputFill names the fault-injection site at the head of every
// input pass (NewInputContext), the most expensive stage of a
// window build — chaos tests use it to make builds fail, stall, or panic.
const FailpointInputFill = "core/input-fill"

// NewInputContext runs the input pass: per-node slice rows, prefix sums
// and the fused gain/loss triangular matrices for every area of A(S×T).
// ctx is checked once per hierarchy node inside the matrix fill (the
// O(|X|·|T|²)-per-node bulk of the pass), so an abandoned large-|T| build
// dies mid-fill — within one node's worth of work plus the worker join —
// instead of running to completion. A cancelled build returns
// (nil, ctx.Err()), and so does an armed FailpointInputFill with its
// injected error. An already-cancelled ctx fails before allocating the
// arenas.
func NewInputContext(ctx context.Context, m *microscopic.Model, opt Options) (*Input, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := failpoint.InjectContext(ctx, FailpointInputFill); err != nil {
		return nil, err
	}
	T, X := m.NumSlices(), m.NumStates()
	n := m.H.NumNodes()
	in := &Input{
		Model:     m,
		T:         T,
		X:         X,
		meta:      make([]nodeMeta, n),
		rootID:    m.H.Root.ID,
		cells:     T * (T + 1) / 2,
		offs:      make([]int, n),
		normalize: opt.Normalize,
		workers:   opt.workers(),
		poolBound: opt.SolverPoolBound,
	}
	for id := range in.offs {
		in.offs[id] = id * in.cells
	}
	in.allocArenas(n)
	in.initPool()
	for t := 0; t < T; t++ {
		in.durPref[t+1] = in.durPref[t] + m.SliceDur[t]
	}
	in.build(m.H.Root)
	if err := in.fillMatrices(ctx, nil); err != nil {
		return nil, err
	}
	in.readRoot()
	return in, nil
}

// allocArenas sizes every flat arena for n hierarchy nodes.
func (in *Input) allocArenas(n int) {
	T, X := in.T, in.X
	in.gain = make([]float64, n*in.cells)
	in.loss = make([]float64, n*in.cells)
	in.slcD = make([]float64, n*X*T)
	in.slcRho = make([]float64, n*X*T)
	in.slcRL = make([]float64, n*X*T)
	in.prefD = make([]float64, n*X*(T+1))
	in.prefRho = make([]float64, n*X*(T+1))
	in.prefRL = make([]float64, n*X*(T+1))
	in.durPref = make([]float64, T+1)
}

// initPool arms the bounded solver pool; called by every Input
// constructor. A zero bound defaults to the worker count.
func (in *Input) initPool() {
	if in.poolBound <= 0 {
		in.poolBound = in.workers
	}
	if in.poolBound < 1 {
		in.poolBound = 1
	}
	in.solverFree = make(chan *Solver, in.poolBound)
	in.solverTokens = make(chan struct{}, in.poolBound)
}

// readRoot records the full-aggregation gain/loss (the normalization
// constants) from the root's widest cell.
func (in *Input) readRoot() {
	if in.cells > 0 {
		idx := in.offs[in.rootID] + in.triIndex(0, in.T-1)
		in.rootGain, in.rootLoss = in.gain[idx], in.loss[idx]
	}
}

// prefBase returns the base of the (node, state) prefix-sum row.
func (in *Input) prefBase(id, x int) int { return (id*in.X + x) * (in.T + 1) }

// slcBase returns the base of the (node, state) slice-local row.
func (in *Input) slcBase(id, x int) int { return (id*in.X + x) * in.T }

// build recursively fills the slice rows bottom-up (leaves from the model,
// inner nodes from their children) and derives the prefix sums.
func (in *Input) build(n *hierarchy.Node) {
	T, X := in.T, in.X
	id := n.ID
	meta := &in.meta[id]
	meta.node = n
	meta.size = n.Size()
	if n.IsLeaf() {
		s := n.Lo
		for x := 0; x < X; x++ {
			in.leafSliceRow(id, x, s, 0, T)
		}
	} else {
		meta.children = make([]int32, len(n.Children))
		meta.childOffs = make([]int, len(n.Children))
		for ci, c := range n.Children {
			in.build(c)
			meta.children[ci] = int32(c.ID)
			meta.childOffs[ci] = in.offs[c.ID]
		}
		for x := 0; x < X; x++ {
			in.innerSliceRow(id, x, 0, T)
		}
	}
	in.prefixRows(id)
}

// leafSliceRow fills slices [lo, hi) of leaf id's (state x) slice row from
// the model's d_x(s, ·) values.
func (in *Input) leafSliceRow(id, x, s, lo, hi int) {
	T := in.T
	row := in.Model.StateRow(x)
	sb := in.slcBase(id, x)
	sd := in.slcD[sb : sb+T]
	sr := in.slcRho[sb : sb+T]
	sl := in.slcRL[sb : sb+T]
	for t := lo; t < hi; t++ {
		d := row[s*T+t]
		rho := 0.0
		if w := in.Model.SliceDur[t]; w > 0 {
			rho = d / w
		}
		sd[t], sr[t], sl[t] = d, rho, measures.PLogP(rho)
	}
}

// innerSliceRow fills slices [lo, hi) of inner node id's (state x) slice
// row by summing its children's rows in child order.
func (in *Input) innerSliceRow(id, x, lo, hi int) {
	T := in.T
	sb := in.slcBase(id, x)
	sd := in.slcD[sb : sb+T]
	sr := in.slcRho[sb : sb+T]
	sl := in.slcRL[sb : sb+T]
	for t := lo; t < hi; t++ {
		sd[t], sr[t], sl[t] = 0, 0, 0
	}
	for _, cid := range in.meta[id].children {
		cb := in.slcBase(int(cid), x)
		cd := in.slcD[cb : cb+T]
		cr := in.slcRho[cb : cb+T]
		cl := in.slcRL[cb : cb+T]
		for t := lo; t < hi; t++ {
			sd[t] += cd[t]
			sr[t] += cr[t]
			sl[t] += cl[t]
		}
	}
}

// prefixRows derives node id's prefix sums from its slice rows.
func (in *Input) prefixRows(id int) {
	T := in.T
	for x := 0; x < in.X; x++ {
		sb := in.slcBase(id, x)
		pb := in.prefBase(id, x)
		pd := in.prefD[pb : pb+T+1]
		pr := in.prefRho[pb : pb+T+1]
		pl := in.prefRL[pb : pb+T+1]
		for t := 0; t < T; t++ {
			pd[t+1] = pd[t] + in.slcD[sb+t]
			pr[t+1] = pr[t] + in.slcRho[sb+t]
			pl[t+1] = pl[t] + in.slcRL[sb+t]
		}
	}
}

// rowSums is the per-worker scratch of one triangle row's running
// per-state sums.
type rowSums struct {
	d, rho, rl []float64
}

func (in *Input) newRowSums() *rowSums {
	return &rowSums{
		d:   make([]float64, in.X),
		rho: make([]float64, in.X),
		rl:  make([]float64, in.X),
	}
}

// fillRow computes the cells (i, j), from ≤ j < |T|, of node id's
// gain/loss triangle. The per-state sums run from j = i regardless of
// from, so every cell is a pure function of the slice rows over [i, j]
// (shift-invariant); cells with j < from are only accumulated over, not
// evaluated or written — the incremental path has already copied them.
func (in *Input) fillRow(id, i, from int, sc *rowSums) {
	T, X := in.T, in.X
	size := in.meta[id].size
	for x := 0; x < X; x++ {
		sc.d[x], sc.rho[x], sc.rl[x] = 0, 0, 0
	}
	dur := 0.0
	sb0 := in.slcBase(id, 0)
	rowBase := in.offs[id] + in.triIndex(i, i)
	for j := i; j < T; j++ {
		dur += in.Model.SliceDur[j]
		eval := j >= from
		var gain, loss float64
		for x := 0; x < X; x++ {
			sb := sb0 + x*T
			sc.d[x] += in.slcD[sb+j]
			sc.rho[x] += in.slcRho[sb+j]
			sc.rl[x] += in.slcRL[sb+j]
			if eval {
				sums := measures.AreaSums{
					SumD:         sc.d[x],
					SumRho:       sc.rho[x],
					SumRhoLogRho: sc.rl[x],
					Size:         size,
					Duration:     dur,
				}
				gain += sums.Gain()
				loss += sums.Loss()
			}
		}
		if eval {
			idx := rowBase + (j - i)
			in.gain[idx], in.loss[idx] = gain, loss
		}
	}
}

// fillMatrices computes every node's gain/loss triangle from the slice
// rows. Nodes write disjoint arena regions, so the O(|X|·|H(S)|·|T|²) work
// is spread over the worker pool. fillNode, when non-nil, overrides the
// per-node work (the incremental path substitutes its copy-then-fill).
// ctx is checked once per node on every path — a cancelled build stops
// dispatching nodes, drains its workers, and returns ctx.Err(), leaving
// the half-filled arenas to the garbage collector.
func (in *Input) fillMatrices(ctx context.Context, fillNode func(id int, sc *rowSums)) error {
	if fillNode == nil {
		fillNode = func(id int, sc *rowSums) {
			for i := 0; i < in.T; i++ {
				in.fillRow(id, i, i, sc)
			}
		}
	}
	n := len(in.meta)
	if in.workers <= 1 || n < 2 {
		sc := in.newRowSums()
		for id := 0; id < n; id++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fillNode(id, sc)
		}
		return nil
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < in.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := in.newRowSums()
			for id := range next {
				if ctx.Err() != nil {
					continue // drain without working
				}
				fillNode(id, sc)
			}
		}()
	}
	for id := 0; id < n; id++ {
		if ctx.Err() != nil {
			break
		}
		next <- id
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}

// triIndex maps interval [i, j] (0 ≤ i ≤ j < |T|) to its flattened
// upper-triangular cell, relative to a node's base offset.
func (in *Input) triIndex(i, j int) int {
	return i*in.T - i*(i-1)/2 + (j - i)
}

// EffectiveP returns the raw trade-off ratio actually fed to Algorithm 1
// for a user-facing p, i.e. p itself without normalization, and the exact
// reparametrization p·L/(p·L+(1−p)·G) with it.
func (in *Input) EffectiveP(p float64) float64 { return in.effectiveP(p) }

// effectiveP maps the user-facing p through the optional normalization:
// maximizing p·(gain/G) − (1−p)·(loss/L) is identical to maximizing
// p*·gain − (1−p*)·loss with p* = pL / (pL + (1−p)G).
func (in *Input) effectiveP(p float64) float64 {
	if !in.normalize {
		return p
	}
	g, l := in.rootGain, in.rootLoss
	if g <= 0 || l <= 0 {
		return p
	}
	den := p*l + (1-p)*g
	if den <= 0 {
		return p
	}
	return p * l / den
}

// AreaInfo describes one area for reporting and rendering: aggregated
// per-state proportions (Eq. 1), the state mode and its share α (§IV), and
// the area's information measures.
type AreaInfo struct {
	Rho        []float64
	Mode       int     // index of the dominant state, -1 if area is idle
	Alpha      float64 // ρ_mode / Σ_x ρ_x ∈ [1/|X|, 1] (0 when idle)
	Gain, Loss float64
}

// Describe computes AreaInfo for the area (node, [i, j]). The node must
// belong to the input's hierarchy.
func (in *Input) Describe(ar partition.Area) AreaInfo {
	id := ar.Node.ID
	idx := in.offs[id] + in.triIndex(ar.I, ar.J)
	info := AreaInfo{
		Rho:  make([]float64, in.X),
		Gain: in.gain[idx],
		Loss: in.loss[idx],
	}
	dur := in.durPref[ar.J+1] - in.durPref[ar.I]
	for x := 0; x < in.X; x++ {
		base := in.prefBase(id, x)
		sums := measures.AreaSums{
			SumD:     in.prefD[base+ar.J+1] - in.prefD[base+ar.I],
			Size:     in.meta[id].size,
			Duration: dur,
		}
		info.Rho[x] = sums.AggRho()
	}
	info.Mode, info.Alpha = measures.Mode(info.Rho)
	return info
}

// EvaluateArea returns the (gain, loss) of an arbitrary candidate area,
// whether or not it belongs to any optimal partition. The product baseline
// uses this to score its partitions against the full microscopic model.
func (in *Input) EvaluateArea(ar partition.Area) (gain, loss float64) {
	idx := in.offs[ar.Node.ID] + in.triIndex(ar.I, ar.J)
	return in.gain[idx], in.loss[idx]
}

// EvaluatePartition sums gain/loss/pIC of an arbitrary structure-consistent
// partition under this model (areas must reference this hierarchy's nodes).
func (in *Input) EvaluatePartition(pt *partition.Partition, p float64) (gain, loss, pic float64) {
	for _, ar := range pt.Areas {
		g, l := in.EvaluateArea(ar)
		gain += g
		loss += l
	}
	return gain, loss, measures.PIC(in.effectiveP(p), gain, loss)
}

// RootGainLoss returns the gain and loss of the full aggregation — the
// normalization constants and the extreme point of the quality curves.
func (in *Input) RootGainLoss() (gain, loss float64) { return in.rootGain, in.rootLoss }

// InputCells returns the total number of triangular-matrix cells, i.e. the
// O(|H(S)|·|T|²) space term; exposed for the scaling ablations.
func (in *Input) InputCells() int { return len(in.gain) }

// AcquireSolverContext returns a Solver from the input's bounded pool,
// with Workers reset to the input's default. Callers must ReleaseSolver
// it when the query is done; the sweeps and the serving layer use this so
// repeated queries stop reallocating the O(|H(S)|·|T|²) pIC/cut scratch.
// At most Options.SolverPoolBound solvers (default: the worker count)
// exist at once — when they are all in flight, AcquireSolverContext
// blocks until one is released, capping the peak pooled scratch memory
// under any request concurrency. A caller blocked at the bound gives up
// when ctx is cancelled and gets ctx.Err() instead of a solver; an
// already-cancelled ctx fails immediately, so a request whose deadline
// expired never claims scratch it cannot use. An idle solver is taken
// without blocking; otherwise the wait is on a release or a creation slot
// (a background ctx's nil Done channel never fires).
func (in *Input) AcquireSolverContext(ctx context.Context) (*Solver, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var s *Solver
	select {
	case s = <-in.solverFree:
	default:
		select {
		case s = <-in.solverFree:
		case in.solverTokens <- struct{}{}: // claim a creation slot
			s = in.NewSolver()
			s.pooled = true
			in.solversLive.Add(1)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.Workers = in.workers
	return s, nil
}

// ReleaseSolver returns a Solver obtained from AcquireSolverContext to the
// pool, unblocking a waiting acquire if any. Extra solvers beyond the
// bound (e.g. created directly with NewSolver) are dropped for the GC.
func (in *Input) ReleaseSolver(s *Solver) {
	select {
	case in.solverFree <- s:
	default:
	}
}

// SolverPoolBound reports the resolved solver-pool capacity.
func (in *Input) SolverPoolBound() int { return in.poolBound }

// MemoryBytes returns the approximate resident size of the Input in
// bytes — the cache-cost accessor serving-layer caches budget their
// entries with: the arenas (matrices, slice rows, prefix sums) plus the
// scratch of every pooled solver created so far (the bounded pool
// retains them for the Input's lifetime, so they are resident cost; the
// pool warms as queries run, so callers budgeting by this value should
// re-read it rather than assume the at-construction figure).
func (in *Input) MemoryBytes() int {
	floats := len(in.gain) + len(in.loss) +
		len(in.slcD) + len(in.slcRho) + len(in.slcRL) +
		len(in.prefD) + len(in.prefRho) + len(in.prefRL) +
		len(in.durPref)
	// Each pooled solver holds a float64 pIC and an int32 cut arena of
	// len(gain) cells, plus whatever fused-lane strips it has grown.
	solver := len(in.gain) * (8 + 4)
	return floats*8 + int(in.solversLive.Load())*solver + int(in.laneBytes.Load())
}

// FailpointCoarsen names the fault-injection site at the head of every
// pair-merge coarsening (preview overviews) — chaos tests use it to fail
// the degrade path independently of the fine build.
const FailpointCoarsen = "core/coarsen"

// CoarsenContext derives the Input one resolution level up: the same
// window at factor× the slice width (factor a power of two dividing |T|),
// computed from this input's model by slice-pair merging
// (microscopic.MergePairs) and therefore bit-identical to NewInputContext
// at the coarse grid — the merged model's rows are exactly this input's
// leaf slice rows summed in pairs, and the input pass over them is the one
// shared fill path. The property tests enforce the equality down to the
// float.
//
// Against a from-scratch coarse build, CoarsenContext skips the
// event-index fill entirely (the merge is O(|X|·|S|·|T|), independent of
// event count) and its matrix pass is (1/factor²) the size of the fine
// one — the overview economics the serving layer's progressive responses
// ride on: an analyst's coarse preview costs a fraction of the window they
// are waiting for. ctx is checked once per hierarchy node inside the
// coarse matrix fill like every other input pass.
func (in *Input) CoarsenContext(ctx context.Context, factor int) (*Input, error) {
	if err := failpoint.InjectContext(ctx, FailpointCoarsen); err != nil {
		return nil, err
	}
	m, err := in.Model.MergePairs(factor)
	if err != nil {
		return nil, fmt.Errorf("core: coarsen: %w", err)
	}
	return NewInputContext(ctx, m, Options{
		Normalize:       in.normalize,
		Workers:         in.workers,
		SolverPoolBound: in.poolBound,
	})
}

// EstimateMemoryBytes predicts Input.MemoryBytes for a build over
// numNodes hierarchy nodes, numStates states and slices time slices,
// before any arena is allocated: the matrix triangles, slice rows, prefix
// sums and duration prefix, exactly as MemoryBytes sums them for a fresh
// Input (whose solver pool is still empty). Serving-layer admission
// guards use this to reject windows whose Input alone would blow a cache
// budget, arithmetically, before paying the build.
func EstimateMemoryBytes(numNodes, numStates, slices int) int64 {
	n, x, t := int64(numNodes), int64(numStates), int64(slices)
	cells := t * (t + 1) / 2
	floats := 2*n*cells + // gain, loss triangles
		3*n*x*t + // slcD, slcRho, slcRL
		3*n*x*(t+1) + // prefD, prefRho, prefRL
		(t + 1) // durPref
	return floats * 8
}
