package core

import (
	"context"
	"fmt"

	"ocelotl/internal/microscopic"
)

// UpdateContext derives the Input of a new window from this one, reusing
// everything the overlapping slices pin down. newModel must share this
// input's hierarchy and dimensions (which models from one
// microscopic.Reslicer do); ov says which of its slices are bit-identical
// to slices of the current window. Per node, the slice rows of surviving
// slices are copied (their values are slice-local, hence shift-invariant),
// the prefix sums are rebased with one running pass, and the gain/loss
// sub-triangle spanned by the surviving slices moves with per-row copies —
// only the rows and columns touching new slices are recomputed. For a pan
// keeping W of |T| slices that is O(Δ·|T|) evaluated cells per node,
// Δ = |T|−W, against O(|T|²) for a fresh build. (A backward pan skips its
// surviving rows entirely; a forward pan's surviving rows still make one
// add-only accumulation pass to reach their Δ tail cells — bit-identical
// running sums cannot start mid-row — so its savings are the dropped
// gain/loss evaluations of fillRow's batched pass, not its scalar pass's
// adds, which remain a forward pan's full-row cost.) The work is
// spread over the Input's workers exactly like NewInputContext's.
//
// The result is a new immutable Input, bit-identical to
// NewInputContext(newModel, same options) — the property tests enforce
// equality down to the float. The receiver is left untouched and stays
// valid.
//
// If newModel has a different hierarchy or shape, or the overlap is empty,
// UpdateContext degrades to a full (still parallel) rebuild and remains
// correct. Like NewInputContext, ctx is checked once per hierarchy node
// inside the matrix pass (copy-then-extend here), so an abandoned
// derivation dies mid-fill and returns (nil, ctx.Err()) instead of
// finishing an Input nobody will read.
func (in *Input) UpdateContext(ctx context.Context, newModel *microscopic.Model, ov microscopic.SliceOverlap) (*Input, error) {
	if newModel.H != in.Model.H || newModel.NumSlices() != in.T || newModel.NumStates() != in.X {
		return NewInputContext(ctx, newModel, in.opt)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ov = in.verifyOverlap(newModel, ov)
	out := &Input{
		Model:  newModel,
		T:      in.T,
		X:      in.X,
		meta:   in.meta, // hierarchy bookkeeping is window-independent
		rootID: in.rootID,
		cells:  in.cells,
		offs:   in.offs,
		opt:    in.opt,
	}
	out.allocArenas(len(in.meta))
	out.memo.init(memoShare * out.residentBytes())
	for t := 0; t < out.T; t++ {
		out.durPref[t+1] = out.durPref[t] + newModel.SliceDur[t]
	}
	out.updateSliceRows(in, ov)
	if err := out.updateMatrices(ctx, in, ov); err != nil {
		return nil, err
	}
	out.readRoot()
	return out, nil
}

// Pan returns the Input of the window panned by k slices: AdvanceContext
// over the model's own Reslicer, so the model update is O(Δ) too. The
// model must have been produced by a microscopic.Reslicer
// (Model.Reslicer() != nil).
func (in *Input) Pan(ctx context.Context, k int) (*Input, error) {
	r := in.Model.Reslicer()
	if r == nil {
		return nil, fmt.Errorf("core: Pan needs a model built by a microscopic.Reslicer")
	}
	return in.AdvanceContext(ctx, r, k)
}

// Zoom returns the Input of the window re-sliced to the range covered by
// slices [lo, hi] of the current window (indices outside [0, |T|) zoom
// out). A full-width zoom is recognized as a pan and reuses the shared
// slices; other zooms change the slice width, so the model is refilled
// from the event index and the matrices rebuilt.
func (in *Input) Zoom(ctx context.Context, lo, hi int) (*Input, error) {
	r := in.Model.Reslicer()
	if r == nil {
		return nil, fmt.Errorf("core: Zoom needs a model built by a microscopic.Reslicer")
	}
	m, ov, err := r.Zoom(in.Model, lo, hi)
	if err != nil {
		return nil, err
	}
	return in.UpdateContext(ctx, m, ov)
}

// verifyOverlap cross-checks a claimed overlap against the two windows'
// slice grids (microscopic.GridOverlap, the shared window-arithmetic
// helper), so a wrong claim degrades to a (correct) rebuild instead of
// silently reusing slices that are not the same. A claim narrower than the
// derivable truth is honored, anything inconsistent is replaced by the
// truth; off-grid windows share nothing.
func (in *Input) verifyOverlap(newModel *microscopic.Model, ov microscopic.SliceOverlap) microscopic.SliceOverlap {
	truth := microscopic.GridOverlap(in.Model.Slicer, newModel.Slicer)
	if !truth.Shared() {
		return truth
	}
	if ov.Shared() && ov.Shift() == truth.Shift() &&
		ov.OldLo >= truth.OldLo && ov.OldLo+ov.W <= truth.OldLo+truth.W {
		return ov // a consistent, possibly narrower claim
	}
	return truth
}

// updateSliceRows fills out's slice rows and prefix sums: surviving slices
// are copied from old (shift-invariant), new slices come from the model
// (leaves) or the children's fresh rows (inner nodes), and the prefix pass
// reruns over the assembled rows — the same computation NewInputContext
// does, on the same values, hence the same floats.
func (out *Input) updateSliceRows(old *Input, ov microscopic.SliceOverlap) {
	T, X := out.T, out.X
	// Half-open ranges of genuinely new slices in the new window.
	newRanges := [][2]int{{0, ov.NewLo}, {ov.NewLo + ov.W, T}}
	var rec func(id int)
	rec = func(id int) {
		meta := &out.meta[id]
		for _, c := range meta.children {
			rec(int(c))
		}
		for x := 0; x < X; x++ {
			if ov.W > 0 {
				sb := out.slcBase(id, x)
				copy(out.slcD[sb+ov.NewLo:sb+ov.NewLo+ov.W], old.slcD[sb+ov.OldLo:sb+ov.OldLo+ov.W])
				copy(out.slcRho[sb+ov.NewLo:sb+ov.NewLo+ov.W], old.slcRho[sb+ov.OldLo:sb+ov.OldLo+ov.W])
				copy(out.slcRL[sb+ov.NewLo:sb+ov.NewLo+ov.W], old.slcRL[sb+ov.OldLo:sb+ov.OldLo+ov.W])
			}
			for _, rg := range newRanges {
				if rg[0] >= rg[1] {
					continue
				}
				if meta.node.IsLeaf() {
					out.leafSliceRow(id, x, meta.node.Lo, rg[0], rg[1])
				} else {
					out.innerSliceRow(id, x, rg[0], rg[1])
				}
			}
		}
		out.prefixRows(id)
	}
	rec(out.rootID)
}

// updateMatrices rebuilds the gain/loss arenas over the Input's workers:
// rows whose start slice survives copy their surviving segment from the
// old arena (one contiguous copy per row — the shared sub-triangle moves)
// and then extend with fillRow; rows starting in a new slice are filled
// whole.
func (out *Input) updateMatrices(ctx context.Context, old *Input, ov microscopic.SliceOverlap) error {
	T := out.T
	sharedHi := ov.NewLo + ov.W - 1 // last surviving slice, new indexing
	return out.fillMatrices(ctx, func(id int, sc *rowSums) {
		off := out.offs[id]
		for i := 0; i < T; i++ {
			if ov.W == 0 || i < ov.NewLo || i > sharedHi {
				out.fillRow(id, i, i, sc)
				continue
			}
			oldI := i - ov.NewLo + ov.OldLo
			n := sharedHi - i + 1
			dst := off + out.triIndex(i, i)
			src := off + out.triIndex(oldI, oldI)
			copy(out.gain[dst:dst+n], old.gain[src:src+n])
			copy(out.loss[dst:dst+n], old.loss[src:src+n])
			if sharedHi+1 < T {
				out.fillRow(id, i, sharedHi+1, sc)
			}
		}
	})
}
