package core

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/trace"
)

// windowTrace builds a trace with overlapping random events over a
// three-level hierarchy — enough structure for pans and zooms to cross
// real aggregate boundaries.
func windowTrace(rng *rand.Rand, nRes, nEv int, winEnd float64) *trace.Trace {
	paths := make([]string, nRes)
	for i := range paths {
		paths[i] = "c" + strconv.Itoa(i%3) + "/m" + strconv.Itoa(i%6) + "/r" + strconv.Itoa(i)
	}
	tr := trace.New(paths, []string{"work", "wait", "io"})
	tr.Start, tr.End = 0, winEnd
	for i := 0; i < nEv; i++ {
		s := trace.ResourceID(rng.Intn(nRes))
		x := trace.StateID(rng.Intn(3))
		start := rng.Float64() * winEnd
		dur := rng.Float64() * winEnd / 9
		tr.Add(s, x, start, start+dur)
	}
	return tr
}

// requireInputsBitIdentical asserts every observable of the incremental
// input equals the fresh one's down to the float: the gain/loss arenas,
// the slice/prefix rows, the normalization constants, and the partitions
// (with their measures) of several RunContext queries.
func requireInputsBitIdentical(t *testing.T, got, want *Input, label string) {
	t.Helper()
	for c := range want.gain {
		if got.gain[c] != want.gain[c] || got.loss[c] != want.loss[c] {
			t.Fatalf("%s: arena cell %d: gain %v/%v loss %v/%v",
				label, c, got.gain[c], want.gain[c], got.loss[c], want.loss[c])
		}
	}
	for c := range want.slcD {
		if got.slcD[c] != want.slcD[c] || got.slcRho[c] != want.slcRho[c] || got.slcRL[c] != want.slcRL[c] {
			t.Fatalf("%s: slice row cell %d differs", label, c)
		}
	}
	for c := range want.prefD {
		if got.prefD[c] != want.prefD[c] || got.prefRho[c] != want.prefRho[c] || got.prefRL[c] != want.prefRL[c] {
			t.Fatalf("%s: prefix cell %d differs", label, c)
		}
	}
	gg, gl := got.RootGainLoss()
	wg, wl := want.RootGainLoss()
	if gg != wg || gl != wl {
		t.Fatalf("%s: RootGainLoss (%v,%v) vs (%v,%v)", label, gg, gl, wg, wl)
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		a, err := got.NewSolver().RunContext(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: incremental Run(%v): %v", label, p, err)
		}
		b, err := want.NewSolver().RunContext(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: fresh Run(%v): %v", label, p, err)
		}
		if a.Signature() != b.Signature() {
			t.Fatalf("%s: Run(%v) partitions differ:\n%s\n%s", label, p, a.Signature(), b.Signature())
		}
		if a.Gain != b.Gain || a.Loss != b.Loss || a.PIC != b.PIC {
			t.Fatalf("%s: Run(%v) measures differ: (%v,%v,%v) vs (%v,%v,%v)",
				label, p, a.Gain, a.Loss, a.PIC, b.Gain, b.Loss, b.PIC)
		}
	}
}

// TestUpdateEquivalenceRandomSequences is the incremental-equivalence
// property test: any sequence of random Pan/Zoom/Update calls yields an
// Input bit-identical to a fresh input pass on the final window — for
// the plain and the Normalize: true path, sequentially and parallel.
func TestUpdateEquivalenceRandomSequences(t *testing.T) {
	for _, opt := range []Options{
		{Workers: 1},
		{Workers: 4},
		{Normalize: true, Workers: 1},
		{Normalize: true, Workers: 4},
	} {
		opt := opt
		name := "workers" + strconv.Itoa(opt.Workers)
		if opt.Normalize {
			name += "_normalize"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(opt.Workers)*100 + 7))
			tr := windowTrace(rng, 9, 900, 30)
			r, err := microscopic.NewReslicer(tr)
			if err != nil {
				t.Fatal(err)
			}
			const T = 12
			m, err := r.Build(microscopic.Options{Slices: T})
			if err != nil {
				t.Fatal(err)
			}
			in := testInput(t, m, opt)
			for step := 0; step < 12; step++ {
				var label string
				switch op := rng.Intn(4); op {
				case 0: // pan, small or past-the-edge
					k := rng.Intn(2*T+6) - (T + 3)
					in, err = in.Pan(context.Background(), k)
					label = "Pan(" + strconv.Itoa(k) + ")"
				case 1: // zoom in or out, occasionally full-width (a pan)
					lo := rng.Intn(2*T) - T/2
					hi := lo + 1 + rng.Intn(T+4)
					if rng.Intn(4) == 0 {
						hi = lo + T - 1 // full width: the pan fast path
					}
					in, err = in.Zoom(context.Background(), lo, hi)
					label = "Zoom(" + strconv.Itoa(lo) + "," + strconv.Itoa(hi) + ")"
				case 2: // raw Update from an explicit Shift
					k := rng.Intn(7) - 3
					m2, ov := testShift(t, r, in.Model, k)
					in, err = in.UpdateContext(context.Background(), m2, ov)
					label = "Update(Shift " + strconv.Itoa(k) + ")"
				default: // arbitrary absolute window: no reusable slices
					lo := rng.Float64() * 20
					m2, ov, werr := r.Window(in.Model, lo, lo+1+rng.Float64()*15)
					if werr != nil {
						t.Fatal(werr)
					}
					in, err = in.UpdateContext(context.Background(), m2, ov)
					label = "Update(Window)"
				}
				if err != nil {
					t.Fatalf("step %d %s: %v", step, label, err)
				}
				fresh := testInput(t, testBuildAt(t, r, in.Model.Slicer), opt)
				requireInputsBitIdentical(t, in, fresh,
					"step "+strconv.Itoa(step)+" "+label)
				// The incrementally produced model must itself match a full
				// fill at the same slicer (the model-layer contract Update
				// builds on).
				for x := 0; x < in.Model.NumStates(); x++ {
					g, w := in.Model.StateRow(x), fresh.Model.StateRow(x)
					for c := range w {
						if g[c] != w[c] {
							t.Fatalf("step %d %s: model d_%d cell %d differs", step, label, x, c)
						}
					}
				}
			}
		})
	}
}

// TestUpdateDegradesToRebuild: a foreign model (different hierarchy) or an
// empty overlap must still produce a correct Input.
func TestUpdateDegradesToRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := windowTrace(rng, 6, 400, 10)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: 8})
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(t, m, Options{Workers: 2})

	// Empty/garbage overlaps: still bit-identical to fresh.
	m2, _ := testShift(t, r, m, 3)
	for _, ov := range []microscopic.SliceOverlap{
		{},
		{OldLo: -4, NewLo: 0, W: 5},
		{OldLo: 0, NewLo: 0, W: 99},
	} {
		got := testUpdate(t, in, m2, ov)
		requireInputsBitIdentical(t, got, testInput(t, m2, Options{Workers: 2}), "garbage overlap")
	}

	// A model on another hierarchy: UpdateContext must fall back to a rebuild.
	tr2 := windowTrace(rng, 4, 200, 10)
	other, err := microscopic.Build(tr2, microscopic.Options{Slices: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := testUpdate(t, in, other, microscopic.SliceOverlap{OldLo: 0, NewLo: 0, W: 8})
	if got.Model != other || got.T != 8 {
		t.Fatal("fallback rebuild lost the model")
	}
}

// TestPanZoomNeedReslicer: the convenience helpers refuse models without
// an event index instead of silently doing something expensive and wrong.
func TestPanZoomNeedReslicer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomModel2(t, rng, paths2x2, 4)
	in := testInput(t, m, Options{})
	if _, err := in.Pan(context.Background(), 1); err == nil {
		t.Error("Pan accepted a model without a reslicer")
	}
	if _, err := in.Zoom(context.Background(), 1, 2); err == nil {
		t.Error("Zoom accepted a model without a reslicer")
	}
}

// TestUpdatePreservesOldInput: the receiver must stay valid and unchanged
// after deriving a new window from it (immutability contract).
func TestUpdatePreservesOldInput(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := windowTrace(rng, 6, 500, 12)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(t, m, Options{})
	before, err := in.NewSolver().RunContext(context.Background(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	gainCopy := append([]float64(nil), in.gain...)
	if _, err := in.Pan(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	for c := range gainCopy {
		if in.gain[c] != gainCopy[c] {
			t.Fatalf("Pan mutated the source input (cell %d)", c)
		}
	}
	after, err := in.NewSolver().RunContext(context.Background(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if before.Signature() != after.Signature() {
		t.Fatal("source input answers changed after Pan")
	}
}
