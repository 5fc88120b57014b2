package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"ocelotl/internal/measures"
	"ocelotl/internal/partition"
)

// MaxLanes is the widest fused lane block a Solver carries through one
// triangular iteration: the sweep layer (solveLanes) partitions its p list
// into blocks of at most this many lanes. The width trades per-lane
// efficiency (wider blocks amortize more of the DP control flow, index
// arithmetic and gain/loss traffic over more lanes per vector step)
// against the per-node working set — a block holds
// MaxLanes·(8+4) bytes per triangle cell of pIC/cut state and one
// MaxLanes·8-byte threshold per slice of a row, which at 16 lanes keeps
// a |T| ≈ 50 node's live rows inside L2 — and against sweep
// granularity across workers (the sweep layer shrinks blocks below this
// cap when splitting them over more workers is the better trade). Both
// vector relaxRow bodies cover every width up to this cap: the AVX2 body
// four lanes per step, the AVX-512 body eight, a 16-lane block's strip
// in two steps.
const MaxLanes = 16

// improveThr returns the strict-improvement threshold Improves(·, best)
// compares against for a finite best: a candidate beats best iff it
// exceeds best + ImproveEps·(1+|best|). The kernel caches this value per
// lane and recomputes it only when best changes, instead of re-deriving it
// on every add-compare; the comparison is bit-identical to
// measures.Improves because every pIC alternative is finite (gain and
// loss are finite sums, p ∈ [0,1]), so Improves' -Inf arm is unreachable.
// Like Improves it rounds the product before the add: the float64
// conversion keeps any compiler from fusing the two into an FMA, so the
// value is the one the vector relaxRow bodies compute with a separate
// multiply and add.
// The no-cut candidate p·g − q·l is likewise two rounded multiplies and a
// subtract in both bodies: the amd64 compiler never fuses them.
func improveThr(best float64) float64 {
	return best + float64(measures.ImproveEps*(1+math.Abs(best)))
}

// validatePs rejects any p outside [0,1] (or NaN) before a solve starts,
// so a bad entry fails the whole call up front instead of the kernel
// computing nonsense for it. Every solving entry point (RunContext and
// the sweep layer's answer) runs it.
func validatePs(ps []float64) error {
	for _, p := range ps {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("core: p = %v out of [0,1]", p)
		}
	}
	return nil
}

// runLanes is Algorithm 1: it solves one lane block (1 ≤ len(ps) ≤
// MaxLanes) into out, one triangular iteration per hierarchy node
// answering every lane. The ps must already be validated. ctx is checked
// once per node (the cadence RunContext documents); a cancelled block
// returns ctx.Err() and leaves out unwritten. The run first claims one of
// the process's solve slots (borrowLanes), waiting while they are all in
// flight; a cancel during the wait returns ctx.Err(). The run's slab is
// borrowed for the run and returned, with the slot, once the walk has
// joined its workers and every lane's cuts are read, cancelled or not.
// The slab is the run's only state, so runs of one Solver may overlap.
func (s *Solver) runLanes(ctx context.Context, ps []float64, out []*partition.Partition) error {
	K := len(ps)
	sl, err := s.in.borrowLanes(ctx, K)
	if err != nil {
		return err
	}
	defer s.in.returnLanes(sl)
	var eff [MaxLanes]float64
	for k, p := range ps {
		eff[k] = s.in.effectiveP(p)
	}
	iterate := func(id int) { s.iterateCellsLanes(sl, id, K, &eff) }
	var sem chan struct{} // nil: the sequential walk
	if s.Workers > 1 {
		sem = make(chan struct{}, s.Workers)
	}
	s.walkParallel(ctx, s.in.rootID, sem, iterate)
	if err := ctx.Err(); err != nil {
		return err
	}
	for k, p := range ps {
		pt := &partition.Partition{P: p}
		s.recoverLane(sl, s.in.rootID, 0, s.in.T-1, k, K, pt)
		pt.PIC = measures.PIC(eff[k], pt.Gain, pt.Loss)
		pt.Sort()
		out[k] = pt
	}
	return nil
}

// laneSlab is one solve's scratch: a K-wide strip of pIC and cut state
// per triangle cell of every hierarchy node, and one row's T·K
// improvement thresholds per node (node id's at thr[id·T·K:]), so the
// subtrees a run walks concurrently never share a strip.
type laneSlab struct {
	pic []float64
	cut []int32
	thr []float64
}

func (sl laneSlab) bytes() int64 { return int64(cap(sl.pic)+cap(sl.thr))*8 + int64(cap(sl.cut))*4 }

// solveSlots is the one bound on concurrent solves in the process: a
// run holds a slot from borrowLanes to returnLanes, so at most
// GOMAXPROCS (at start-up) runs are in flight on all Inputs together,
// and the scratch in use plus idle is at most that many slabs.
// A sweep at the default worker count (also GOMAXPROCS) fills the slots
// without waiting on its own runs.
//
// laneSlabs is the process-wide free list of idle lane slabs. A solve
// borrows one for its duration, so no Input or Solver retains scratch
// between solves: the idle scratch of the whole process is what this
// list holds. It never holds more slabs than there are slots, and its
// bytes stay under maxIdleLaneBytes. A run takes an idle slab whenever
// one is there, so a serial load keeps a single slab. idleLaneBytes is
// the bytes of the slabs it holds.
var (
	solveSlots    = make(chan struct{}, runtime.GOMAXPROCS(0))
	laneSlabs     = make(chan laneSlab, cap(solveSlots))
	idleLaneBytes atomic.Int64
)

// maxIdleLaneBytes caps the bytes the free list keeps idle. A MaxLanes
// slab of a 75-node, 40-slice window is 12.2 MB, so a few cores' worth
// of such slabs fit; the slab of one huge window (512 slices × 75 nodes
// is 1.9 GB at MaxLanes) never stays behind once its solve ends.
const maxIdleLaneBytes = 64 << 20

// IdleScratchBytes reports the bytes of idle solver scratch the process
// keeps for reuse: the lane slabs on the free list.
func IdleScratchBytes() int64 { return idleLaneBytes.Load() }

// borrowLanes claims a solve slot, blocking while every slot is in
// flight (an already-cancelled ctx fails before it waits, and a cancel
// during the wait returns ctx.Err()), then takes an idle slab and slices
// it to a K-lane block of this Input's shape. A missing slab, or one too
// small for the block, is replaced: at exactly one lane for K = 1, and
// at the MaxLanes width for K > 1 — a multi-lane borrower is almost
// always a sweep or the dichotomy, whose block widths vary from call to
// call, and one full-width slab serves them all. Stale contents need no
// clearing: the kernel writes every cell and threshold before reading
// it.
func (in *Input) borrowLanes(ctx context.Context, K int) (laneSlab, error) {
	if err := ctx.Err(); err != nil {
		return laneSlab{}, err
	}
	select {
	case solveSlots <- struct{}{}:
	case <-ctx.Done():
		return laneSlab{}, ctx.Err()
	}
	cells, strips := len(in.gain), len(in.meta)*in.T
	var sl laneSlab
	select {
	case sl = <-laneSlabs:
		idleLaneBytes.Add(-sl.bytes())
	default:
	}
	if cap(sl.pic) < cells*K || cap(sl.thr) < strips*K {
		w := K
		if K > 1 {
			w = MaxLanes
		}
		sl = laneSlab{pic: make([]float64, cells*w), cut: make([]int32, cells*w), thr: make([]float64, strips*w)}
	}
	return laneSlab{pic: sl.pic[:cells*K], cut: sl.cut[:cells*K], thr: sl.thr[:strips*K]}, nil
}

// returnLanes hands a run's slab back to the free list and frees its
// solve slot. The slab goes to the GC instead when it would take the
// idle bytes past maxIdleLaneBytes, or when it is wider than any block
// of this Input's shape (MaxLanes strips per cell and per node row): a
// slab left by a larger window is trimmed by the first smaller run that
// borrows it, so idle scratch follows the shapes being solved now. The
// list has room for the slab, since every slab on it or in a run counts
// against a slot. The gauge counts the slab before the send, so it never
// reads below what the list holds.
func (in *Input) returnLanes(sl laneSlab) {
	if cap(sl.pic) <= len(in.gain)*MaxLanes && cap(sl.thr) <= len(in.meta)*in.T*MaxLanes {
		if b := sl.bytes(); idleLaneBytes.Add(b) <= maxIdleLaneBytes {
			laneSlabs <- sl
		} else {
			idleLaneBytes.Add(-b)
		}
	}
	<-solveSlots
}

// iterateCellsLanes is the triangular iteration of Algorithm 1 for one
// node and K p-lanes, assuming every child's pIC strips in sl are already
// computed. The lane arenas hold one K-wide strip per triangle cell
// (row-major, like the gain/loss triangles). Row by row, last to first,
// one relaxRow call finishes the whole row: it stores every cell's
// no-cut candidate, offers the spatial cut, then for cut = i..T−2
// offers pic(i,cut) + pic(cut+1,j) to all cells (i, j>cut) at once,
// reading row cut+1 contiguously.
// pic(i,cut) is final when cut is offered: its own cuts i..cut−1 were
// offered before. Each cell still sees the same candidates in the same
// order — no cut, spatial, then temporal cuts ascending — with the same
// adds and strict compares against per-lane cached thresholds, and per
// lane none of it depends on K, so each lane's pIC and cut matrices are
// bit-identical to a one-lane solve at that p. The row's thresholds live
// in the node's strip of the slab. The kernel level picks the body:
// relaxRowAVX512 where the CPU has AVX-512 F, DQ and VL, relaxRowAVX2
// where it has AVX2, the portable relaxRow elsewhere.
func (s *Solver) iterateCellsLanes(sl laneSlab, id, K int, eff *[MaxLanes]float64) {
	in := s.in
	T := in.T
	off := in.offs[id]
	gain := in.gain[off : off+in.cells]
	loss := in.loss[off : off+in.cells]
	pic := sl.pic[off*K : (off+in.cells)*K]
	cuts := sl.cut[off*K : (off+in.cells)*K]
	thr := sl.thr[id*T*K : (id+1)*T*K]
	childOffs := in.meta[id].childOffs
	p := eff[:K:K]
	var qa [MaxLanes]float64
	q := qa[:K:K]
	for k := range p {
		q[k] = 1 - p[k]
	}
	for i := T - 1; i >= 0; i-- {
		base := i*T - i*(i-1)/2 // triIndex(i, i)
		n := (T - i) * K        // the row's strips, flattened
		g, l := gain[base:base+T-i], loss[base:base+T-i]
		tri, th, c := pic[base*K:], thr[:n], cuts[base*K:base*K+n]
		kids := sl.pic[base*K:]
		switch kernel {
		case kernelAVX512:
			relaxRowAVX512(p, q, g, l, tri, th, c, kids, childOffs, i)
		case kernelAVX2:
			relaxRowAVX2(p, q, g, l, tri, th, c, kids, childOffs, i)
		default:
			relaxRow(p, q, g, l, tri, th, c, kids, childOffs, i)
		}
	}
}

// recoverLane walks lane k's cut matrix in sl (stride K strips) from
// (node, [i,j]) down to the aggregates of that lane's optimal partition,
// accumulating gain/loss totals.
func (s *Solver) recoverLane(sl laneSlab, id, i, j, k, K int, pt *partition.Partition) {
	in := s.in
	idx := in.offs[id] + in.triIndex(i, j)
	switch c := sl.cut[idx*K+k]; {
	case c == int32(j): // aggregate of the partition
		pt.Areas = append(pt.Areas, partition.Area{Node: in.meta[id].node, I: i, J: j})
		pt.Gain += in.gain[idx]
		pt.Loss += in.loss[idx]
	case c == CutSpatial:
		for _, child := range in.meta[id].children {
			s.recoverLane(sl, int(child), i, j, k, K, pt)
		}
	default: // temporal cut at c
		s.recoverLane(sl, id, i, int(c), k, K, pt)
		s.recoverLane(sl, id, int(c)+1, j, k, K, pt)
	}
}
