package core

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"ocelotl/internal/hierarchy"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/testutil"
	"ocelotl/internal/timeslice"
)

// refFill is a verbatim copy of the input-pass fill the one-log kernel
// replaced: per (cell, state), running sums over the slice rows from
// j = i and the two-log formulation of AreaSums.Gain and Loss
// (testutil.RefGainLoss), summed over the states in order.
func refFill(in *Input) (gain, loss []float64) {
	gain = make([]float64, len(in.gain))
	loss = make([]float64, len(in.loss))
	d, rho, rl := make([]float64, in.X), make([]float64, in.X), make([]float64, in.X)
	for id := range in.meta {
		size := in.meta[id].size
		for i := 0; i < in.T; i++ {
			clear(d)
			clear(rho)
			clear(rl)
			dur := 0.0
			for j := i; j < in.T; j++ {
				dur += in.Model.SliceDur[j]
				var g, l float64
				for x := 0; x < in.X; x++ {
					sb := in.slcBase(id, x)
					d[x] += in.slcD[sb+j]
					rho[x] += in.slcRho[sb+j]
					rl[x] += in.slcRL[sb+j]
					gx, lx := testutil.RefGainLoss(d[x], rho[x], rl[x], size, dur)
					g += gx
					l += lx
				}
				idx := in.offs[id] + in.triIndex(i, j)
				gain[idx], loss[idx] = g, l
			}
		}
	}
	return gain, loss
}

// requireKernelBitIdentical asserts every gain and loss arena cell of in
// equals refFill's, compared by bits so signed zeros count.
func requireKernelBitIdentical(t *testing.T, in *Input, label string) {
	t.Helper()
	gain, loss := refFill(in)
	for c := range gain {
		if math.Float64bits(in.gain[c]) != math.Float64bits(gain[c]) ||
			math.Float64bits(in.loss[c]) != math.Float64bits(loss[c]) {
			t.Fatalf("%s: arena cell %d: gain %v, reference %v; loss %v, reference %v",
				label, c, in.gain[c], gain[c], in.loss[c], loss[c])
		}
	}
}

// edgeModel draws a model over a random hierarchy (size-1 leaves
// included) whose values mix zeros, subnormals and ordinary seconds, with
// an always-idle last state and some zero-duration and subnormal-duration
// slices.
func edgeModel(rng *rand.Rand) *microscopic.Model {
	h, err := hierarchy.FromPaths(randomHierarchyPaths(rng, 6))
	if err != nil {
		panic(err)
	}
	T := 1 + rng.Intn(9)
	sl, err := timeslice.New(0, float64(T), T)
	if err != nil {
		panic(err)
	}
	X := 2 + rng.Intn(3)
	states := make([]string, X)
	for x := range states {
		states[x] = "x" + strconv.Itoa(x)
	}
	m := microscopic.NewEmpty(h, sl, states)
	tiny := math.SmallestNonzeroFloat64
	for t := range m.SliceDur {
		switch rng.Intn(6) {
		case 0:
			m.SliceDur[t] = 0
		case 1:
			m.SliceDur[t] = 7 * tiny
		}
	}
	edge := []float64{0, tiny, 3 * tiny, 0x1p-1030, 1e-300, 0.25}
	for s := 0; s < h.NumLeaves(); s++ {
		for t := 0; t < T; t++ {
			for x := 0; x < X-1; x++ { // state X-1 stays idle
				v := rng.Float64() * m.SliceDur[t] / float64(X)
				if k := rng.Intn(len(edge) + 1); k < len(edge) {
					v = edge[k]
				}
				m.AddD(x, s, t, v)
			}
		}
	}
	return m
}

// TestKernelBitIdenticalEdgeValues: NewInputContext on models full of
// edge values (idle states, zero-duration slices, size-1 leaves,
// subnormals) fills every arena cell exactly as the two-log reference,
// at each kernel level the CPU runs.
func TestKernelBitIdenticalEdgeValues(t *testing.T) {
	for _, body := range kernelBodies() {
		t.Run(bodyName(body), func(t *testing.T) {
			defer setKernel(body)()
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 60; trial++ {
				m := edgeModel(rng)
				in := testInput(t, m, Options{Workers: 1 + trial%3})
				requireKernelBitIdentical(t, in, "trial "+strconv.Itoa(trial))
			}
		})
	}
}

// TestKernelBitIdenticalDerived: the arenas of a scratch build, of
// UpdateContext after forward and backward pans, and of CoarsenContext
// all match the two-log reference bit for bit, on random traces with an
// idle state and subnormal event durations at the window start, with
// each kernel level the CPU runs.
func TestKernelBitIdenticalDerived(t *testing.T) {
	for _, body := range kernelBodies() {
		t.Run(bodyName(body), func(t *testing.T) {
			defer setKernel(body)()
			checkKernelDerived(t)
		})
	}
}

func checkKernelDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		tr := windowTrace(rng, 1+rng.Intn(9), 300, 25)
		tr.States = append(tr.States, "idle")
		tr.Add(0, 0, 0, math.SmallestNonzeroFloat64)
		tr.Add(0, 1, 0, 0x1p-1040)
		r, err := microscopic.NewReslicer(tr)
		if err != nil {
			t.Fatal(err)
		}
		T := []int{4, 8, 12, 16}[rng.Intn(4)]
		m, err := r.Build(microscopic.Options{Slices: T})
		if err != nil {
			t.Fatal(err)
		}
		label := "trial " + strconv.Itoa(trial)
		in := testInput(t, m, Options{Workers: 1 + trial%2, Normalize: trial%2 == 0})
		requireKernelBitIdentical(t, in, label+" scratch")
		// Even pans keep the grid aligned for the pair-merge below.
		for _, k := range []int{2 + 2*rng.Intn(T/4), -2 - 2*rng.Intn(T/4)} {
			nm, ov := testShift(t, r, in.Model, k)
			in = testUpdate(t, in, nm, ov)
			requireKernelBitIdentical(t, in, label+" pan "+strconv.Itoa(k))
		}
		coarse, err := in.CoarsenContext(context.Background(), 2)
		if err != nil {
			t.Fatalf("%s: CoarsenContext: %v", label, err)
		}
		requireKernelBitIdentical(t, coarse, label+" coarsen")
	}
}
