package core

import (
	"context"

	"ocelotl/internal/microscopic"
)

// AdvanceContext is the per-tick step of live ingestion: the trace has
// grown (r is an Extend of the reslicer this input's model was built
// over), and the live window slides k slices forward on the same grid to
// chase the ingestion horizon. The model shift fills only the k new slice
// columns from r's index — which for an extended reslicer includes the
// freshly appended events — and the Input derivation reuses every
// surviving row via UpdateContext, so one tick costs O(Δ slices), not a
// rebuild. k = 0 re-derives the same window over the extended index (only
// needed if appended events can land inside the current window; a
// time-ordered writer never puts any there, so followers skip the k = 0
// no-op entirely).
//
// The result is bit-identical to a scratch build over r at the shifted
// window — Extend preserves the fill order and Update is bit-identical by
// its own contract — which is what lets a serving layer keep cache
// entries from earlier ticks alive. The receiver stays valid.
func (in *Input) AdvanceContext(ctx context.Context, r *microscopic.Reslicer, k int) (*Input, error) {
	m, ov, err := r.Shift(in.Model, k)
	if err != nil {
		return nil, err
	}
	return in.UpdateContext(ctx, m, ov)
}
