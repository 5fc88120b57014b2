package experiments

import (
	"context"
	"fmt"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/server"
	"ocelotl/internal/timeslice"
)

// RunWindowing backs the incremental-windowing claim with measurements: a
// window change through microscopic.Reslicer + core.Input.UpdateContext costs
// O(changed slices), against rebuilding the model and the whole Input from
// scratch. The table sweeps the overlap fraction W/|T| from a 1-slice pan
// down to a full displacement, plus a zoom (whose slice width changes, so
// only the indexed model fill is saved). Every incremental result is
// checked against the from-scratch build before timing is reported — the
// experiment fails rather than print a speedup for a wrong answer. A
// second table runs an overview ⇄ drill sequence through the serving
// layer's resolution ladder (server.InputCache), the path ocelotld serves
// zooms from.
func RunWindowing(cfg Config) error {
	const (
		S = 96
		T = 50
	)
	tr := mpisim.ArtificialSized(S, 4*T)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		return err
	}
	base, err := r.Build(microscopic.Options{Slices: T})
	if err != nil {
		return err
	}
	ctx := cfg.context()
	in, err := core.NewInputContext(ctx, base, core.Options{})
	if err != nil {
		return err
	}

	cfg.printf("incremental window updates vs from-scratch rebuild (|S|=%d, |T|=%d, %d events):\n",
		S, T, r.NumEvents())
	cfg.printf("%12s %10s %14s %14s %10s\n", "step", "overlap", "incremental", "scratch", "speedup")

	w := base.Slicer.Width()
	scratch := func(start, end float64) (*core.Input, time.Duration, error) {
		t0 := time.Now()
		m, err := microscopic.Build(tr, microscopic.Options{Slices: T, Start: start, End: end})
		if err != nil {
			return nil, 0, err
		}
		fresh, err := core.NewInputContext(ctx, m, core.Options{})
		return fresh, time.Since(t0), err
	}
	row := func(label string, overlap int, inc func() (*core.Input, error), start, end float64) error {
		t0 := time.Now()
		got, err := inc()
		if err != nil {
			return err
		}
		dInc := time.Since(t0)
		_, dScr, err := scratch(start, end)
		if err != nil {
			return err
		}
		// Bit-exact self-check against a full fill of the same window from
		// the same index.
		if err := sameAsIndexBuild(ctx, r, got); err != nil {
			return fmt.Errorf("windowing %s: incremental diverged from fresh build: %w", label, err)
		}
		cfg.printf("%12s %9.0f%% %14v %14v %9.1f×\n", label,
			100*float64(overlap)/float64(T),
			dInc.Round(time.Microsecond), dScr.Round(time.Microsecond),
			float64(dScr)/float64(dInc))
		return nil
	}

	for _, k := range []int{1, 2, 5, 12, 25, 50} {
		k := k
		start, end := base.Slicer.Start+float64(k)*w, base.Slicer.End+float64(k)*w
		overlap := T - k
		if overlap < 0 {
			overlap = 0
		}
		if err := row(fmt.Sprintf("pan %d", k), overlap,
			func() (*core.Input, error) { return in.Pan(ctx, k) }, start, end); err != nil {
			return err
		}
	}
	zs, ze := base.Slicer.IntervalBounds(10, 19)
	if err := row("zoom 10:19", 0,
		func() (*core.Input, error) { return in.Zoom(ctx, 10, 19) }, zs, ze); err != nil {
		return err
	}
	cfg.println("\n(speedup scales with the overlap: surviving slice rows and the shared")
	cfg.println(" gain/loss sub-triangle are reused; a zoom changes the slice width, so")
	cfg.println(" only the indexed event fill is saved.)")

	// The serving layer's resolution ladder closes the zoom gap: the
	// InputCache pins one window per visited grid level, so the
	// overview-then-drill loop pays scratch once per resolution and pan
	// prices on every revisit. The same bit-exact self-check guards every
	// row.
	reg := server.NewRegistry()
	defer reg.CloseAll()
	st, err := reg.LoadTrace("windowing", tr)
	if err != nil {
		return err
	}
	cache := server.NewInputCache(server.DefaultCacheBytes, core.Options{}, 0)
	cfg.println("\nladder zoom sequence (overview ⇄ drill, levels stay warm):")
	cfg.printf("%24s %10s %14s %14s %10s\n", "step", "build", "ladder", "scratch", "speedup")
	ladderRow := func(label string, sl timeslice.Slicer) error {
		t0 := time.Now()
		got, kind, err := cache.Get(ctx, st, sl)
		if err != nil {
			return err
		}
		dLadder := time.Since(t0)
		_, dScr, err := scratch(sl.Start, sl.End)
		if err != nil {
			return err
		}
		if err := sameAsIndexBuild(ctx, r, got); err != nil {
			return fmt.Errorf("ladder %s: diverged from fresh build: %w", label, err)
		}
		cfg.printf("%24s %10s %14v %14v %9.1f×\n", label, kind,
			dLadder.Round(time.Microsecond), dScr.Round(time.Microsecond),
			float64(dScr)/float64(dLadder))
		return nil
	}
	drillSl, err := timeslice.New(zs, ze, T)
	if err != nil {
		return err
	}
	overview := in.Model.Slicer
	for _, step := range []struct {
		label string
		sl    timeslice.Slicer
	}{
		{"overview (first visit)", overview},
		{"drill 10:19 (first)", drillSl},
		{"back out (warm)", overview},
		{"re-drill panned (warm)", drillSl.Shift(2)},
		{"overview panned (warm)", overview.Shift(-3)},
	} {
		if err := ladderRow(step.label, step.sl); err != nil {
			return err
		}
	}
	cfg.println("\n(first visits to a resolution build from the event index; revisits")
	cfg.println(" resolve as hits or same-grid pan-derivations — zooms at pan prices.)")
	return nil
}

// sameAsIndexBuild cross-checks got against a fresh input pass over r's
// index at got's window (Build accumulates in trace order, the index in
// per-resource start order, so a comparison with Build is only ever
// tolerance-exact; within the index family equality is exact).
func sameAsIndexBuild(ctx context.Context, r *microscopic.Reslicer, got *core.Input) error {
	fm, err := r.BuildAt(got.Model.Slicer)
	if err != nil {
		return err
	}
	fresh, err := core.NewInputContext(ctx, fm, core.Options{})
	if err != nil {
		return err
	}
	return sameAnswers(ctx, got, fresh)
}

// sameAnswers cross-checks the observable behavior of two Inputs over the
// same window: normalization constants and the optimal partitions at a few
// p. The incremental path promises bit-identity, so the comparison is
// exact.
func sameAnswers(ctx context.Context, a, b *core.Input) error {
	ag, al := a.RootGainLoss()
	bg, bl := b.RootGainLoss()
	if ag != bg || al != bl {
		return fmt.Errorf("RootGainLoss (%v,%v) vs (%v,%v)", ag, al, bg, bl)
	}
	for _, p := range []float64{0.25, 0.75} {
		pa, err := a.NewSolver().RunContext(ctx, p)
		if err != nil {
			return err
		}
		pb, err := b.NewSolver().RunContext(ctx, p)
		if err != nil {
			return err
		}
		if pa.Signature() != pb.Signature() || pa.PIC != pb.PIC {
			return fmt.Errorf("Run(%v) partitions differ", p)
		}
	}
	return nil
}
