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
// O(|X|·|S|·|T| + |X|·|H(S)|·|T|²); once built its aggregation results
// are never mutated (only the internal memo changes), so any number of
// Solvers (and the query methods below) may share one Input
// concurrently. This split is what makes the paper's "instantaneous
// interaction" scale across cores: one input pass serves every p the
// analyst explores.
//
// Storage is arena-backed: each matrix kind is a single flat []float64
// holding one T(T+1)/2-cell upper triangle per hierarchy node, indexed by
// the per-node offset table offs.
//
// Each triangle row is filled in two passes (fillRow): a scalar pass
// runs every state's sums along the row and records them with each
// cell's Eq. 1 normalizer |S_k|·Σd(t), and a batched pass (gainLossRow)
// evaluates measures.GainLoss — one division and one logarithm per
// (cell, state) — on four cells per step where the CPU has AVX2. Its
// vector body transliterates math.Log2 lane by lane, so every cell is
// bit-identical to the scalar formula (FuzzLog2x4, FuzzGainLossRow, and
// the two-log reference of the kernel tests).
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

	// Prefix sums of the slcD rows, row base prefBase(id, x), length
	// |T|+1 each; serve the O(1) range queries of Describe.
	prefD []float64

	durPref []float64 // prefix sums of d(t), length |T|+1

	// opt is the Input's options with Workers resolved; every Input
	// derived from this one (UpdateContext, CoarsenContext) inherits it.
	opt Options

	rootGain, rootLoss float64 // full-aggregation gain/loss (normalization)

	// memo holds solved answers keyed by the exact bits of p (memo.go).
	// It is internal concurrency-safe state, not a mutation of the
	// aggregation results; its bytes, bounded at memoShare times the
	// arena and Model bytes, count toward MemoryBytes.
	memo memo
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
}

// resolved returns o with Workers resolved to the effective parallelism.
func (o Options) resolved() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
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
		Model:  m,
		T:      T,
		X:      X,
		meta:   make([]nodeMeta, n),
		rootID: m.H.Root.ID,
		cells:  T * (T + 1) / 2,
		offs:   make([]int, n),
		opt:    opt.resolved(),
	}
	for id := range in.offs {
		in.offs[id] = id * in.cells
	}
	in.allocArenas(n)
	in.memo.init(memoShare * in.residentBytes())
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
	in.durPref = make([]float64, T+1)
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

// prefixRows derives node id's prefD rows from its slcD rows.
func (in *Input) prefixRows(id int) {
	T := in.T
	for x := 0; x < in.X; x++ {
		sb := in.slcBase(id, x)
		pb := in.prefBase(id, x)
		pd := in.prefD[pb : pb+T+1]
		for t := 0; t < T; t++ {
			pd[t+1] = pd[t] + in.slcD[sb+t]
		}
	}
}

// rowSums is the per-worker scratch of one triangle row, where fillRow's
// two passes meet: each evaluated cell's Eq. 1 normalizer and, state-major
// with the row's cell count as stride, every state's running sums at each
// evaluated cell. It is O(|X|·|T|).
type rowSums struct {
	den, d, rho, rl []float64
}

func (in *Input) newRowSums() *rowSums {
	n := in.X * in.T
	return &rowSums{
		den: make([]float64, in.T),
		d:   make([]float64, n),
		rho: make([]float64, n),
		rl:  make([]float64, n),
	}
}

// fillRow computes the cells (i, j), from ≤ j < |T|, of node id's
// gain/loss triangle in two passes. The scalar pass runs each state's
// sums from j = i regardless of from, so every cell is a pure function of
// the slice rows over [i, j] (shift-invariant); cells with j < from are
// only accumulated over, not evaluated or written — the incremental path
// has already copied them. It records the sums of the evaluated cells in
// sc, and the batched pass (gainLossRow) turns them into the row's gains
// and losses, several cells per step.
func (in *Input) fillRow(id, i, from int, sc *rowSums) {
	T, n := in.T, in.T-from
	// The Eq. 1 normalizer is per cell, not per state.
	size := float64(in.meta[id].size)
	den := sc.den[:n]
	dur := 0.0
	for j, w := range in.Model.SliceDur[i:T] {
		dur += w
		if c := i + j - from; c >= 0 {
			den[c] = size * dur
		}
	}
	skip := from - i
	for x := 0; x < in.X; x++ {
		sb := in.slcBase(id, x) + i
		sd, sr, sl := in.slcD[sb:sb+T-i], in.slcRho[sb:sb+T-i], in.slcRL[sb:sb+T-i]
		bd, br, bl := sc.d[x*n:][:n], sc.rho[x*n:][:n], sc.rl[x*n:][:n]
		var d, rho, rl float64
		for j := 0; j < skip; j++ {
			d += sd[j]
			rho += sr[j]
			rl += sl[j]
		}
		for c := range bd {
			d += sd[skip+c]
			rho += sr[skip+c]
			rl += sl[skip+c]
			bd[c], br[c], bl[c] = d, rho, rl
		}
	}
	base, m := in.offs[id]+in.triIndex(i, from), in.X*n
	gainLossRow(den, sc.d[:m], sc.rho[:m], sc.rl[:m], in.gain[base:base+n], in.loss[base:base+n])
}

// fillMatrices computes every node's gain/loss triangle from the slice
// rows. Nodes write disjoint arena regions, so the O(|X|·|H(S)|·|T|²) work
// is spread over the Input's workers (forEach), each with its own row
// sums. fillNode, when non-nil, overrides the per-node work (the
// incremental path substitutes its copy-then-fill). ctx is checked once
// per node — a cancelled build starts no further node, joins its workers,
// and returns ctx.Err(), leaving the half-filled arenas to the garbage
// collector.
func (in *Input) fillMatrices(ctx context.Context, fillNode func(id int, sc *rowSums)) error {
	if fillNode == nil {
		fillNode = func(id int, sc *rowSums) {
			for i := 0; i < in.T; i++ {
				in.fillRow(id, i, i, sc)
			}
		}
	}
	scs := make([]*rowSums, in.opt.Workers)
	return forEach(ctx, in.opt.Workers, len(in.meta), func(w, id int) {
		if scs[w] == nil {
			scs[w] = in.newRowSums()
		}
		fillNode(id, scs[w])
	})
}

// forEach runs do(w, i) exactly once for every item i in [0, n) on
// min(workers, n) workers; w (0 ≤ w < workers) names the worker running
// the item, so do can keep per-worker scratch. Worker 0 is the calling
// goroutine and the others are goroutines of their own; each worker
// claims its next item from one shared counter, so items start in order.
// ctx is checked before each item: once it is cancelled no further item
// starts. forEach returns ctx.Err() after joining every goroutine it
// started; with one worker it starts none.
func forEach(ctx context.Context, workers, n int, do func(w, i int)) error {
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || ctx.Err() != nil {
				return
			}
			do(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
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
	if !in.opt.Normalize {
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

// AcquireSolverContext returns NewSolver(), or ctx.Err() when ctx is
// already cancelled. It claims nothing: the one bound on concurrent
// solves is process-wide, and each run claims a slot of it itself
// (runLanes), waiting while every slot is in flight and giving up with
// ctx.Err() on a cancel. It stays exported, with ReleaseSolver, only
// because the benchmark's shadow replay (perfbench/shadow.go) still
// calls the pair; new code calls NewSolver.
func (in *Input) AcquireSolverContext(ctx context.Context) (*Solver, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return in.NewSolver(), nil
}

// ReleaseSolver does nothing: a Solver holds no claim between runs (see
// AcquireSolverContext, kept for the same caller).
func (in *Input) ReleaseSolver(*Solver) {}

// MemoryBytes returns the approximate resident size of the Input in
// bytes — the cache-cost accessor serving-layer caches budget their
// entries with: the arenas (matrices, slice rows, prefix sums), the
// window's microscopic Model rows and the memo of solved answers. Solver
// scratch is not part of it: solves borrow their pIC/cut arenas from a
// process-wide free list (IdleScratchBytes) and retain none. The memo
// grows as queries run, so callers budgeting by this value should re-read
// it rather than assume the at-construction figure.
func (in *Input) MemoryBytes() int {
	return in.residentBytes() + in.memo.size()
}

// residentBytes is MemoryBytes without the memo, fixed at construction:
// the flat arenas and the Model rows, counted by EstimateMemoryBytes,
// the one formula of their layout.
func (in *Input) residentBytes() int {
	return int(EstimateMemoryBytes(len(in.meta), in.Model.NumResources(), in.X, in.T))
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
	return NewInputContext(ctx, m, in.opt)
}

// EstimateMemoryBytes predicts Input.MemoryBytes for a build over
// numNodes hierarchy nodes of which numLeaves are resources, numStates
// states and slices time slices, before any arena is allocated: the
// matrix triangles, slice rows, prefix sums and duration prefix, plus
// the window's Model rows (d_x(s,t) and d(t), which each window owns: a
// derived window's model is a copy), exactly as MemoryBytes sums them for
// a fresh Input (whose memo is still empty). Serving-layer admission
// guards use this to reject windows whose Input alone would blow a cache
// budget, arithmetically, before paying the build.
func EstimateMemoryBytes(numNodes, numLeaves, numStates, slices int) int64 {
	n, s, x, t := int64(numNodes), int64(numLeaves), int64(numStates), int64(slices)
	cells := t * (t + 1) / 2
	floats := 2*n*cells + // gain, loss triangles
		3*n*x*t + // slcD, slcRho, slcRL
		n*x*(t+1) + // prefD
		(t + 1) + // durPref
		x*s*t + t // Model.dx, Model.SliceDur
	return floats * 8
}
