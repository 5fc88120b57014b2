package core

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ocelotl/internal/hierarchy"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
)

// requireLog2x4 runs the four lanes through log2x4AVX2 and fails unless
// each lane's bits equal math.Log2's.
func requireLog2x4(t *testing.T, lanes [4]uint64) {
	t.Helper()
	var x [4]float64
	for k, b := range lanes {
		x[k] = math.Float64frombits(b)
	}
	got := x
	log2x4AVX2(&got)
	for k, v := range x {
		if want := math.Log2(v); math.Float64bits(got[k]) != math.Float64bits(want) {
			t.Fatalf("lane %d: log2(%#016x = %v) = %#016x (%v), math.Log2 %#016x (%v)",
				k, lanes[k], v, math.Float64bits(got[k]), got[k], math.Float64bits(want), want)
		}
	}
}

// FuzzLog2x4 compares the input-pass kernel's four-lane log2 with
// math.Log2 on raw bit patterns, by bits: the committed seeds cover
// subnormals, exact powers of two, 1 ± ulp, values at and just below
// √2/2 (archLog's reduction branch), zeros, negatives, ±Inf and NaN
// payloads, signalling ones included.
func FuzzLog2x4(f *testing.F) {
	if cpuKernel() < kernelAVX2 {
		f.Skip("no AVX2 log2 on this CPU")
	}
	f.Add(uint64(0x3ff0000000000000), uint64(0x3fe6a09e667f3bcc), uint64(1), uint64(0x7ff0000000000000))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		requireLog2x4(t, [4]uint64{a, b, c, d})
	})
}

// TestLog2x4Sweep runs the four-lane log2 over every binade's edges and
// a random spread of bit patterns in each class FuzzLog2x4 seeds.
func TestLog2x4Sweep(t *testing.T) {
	if cpuKernel() < kernelAVX2 {
		t.Skip("no AVX2 log2 on this CPU")
	}
	var vals []uint64
	for e := uint64(0); e < 2048; e++ {
		b := e << 52
		vals = append(vals, b, b+1, b+0xfffffffffffff, b|0x8000000000000, 1<<63|b, 1<<63|b+1)
	}
	hs := math.Float64bits(math.Sqrt2 / 2)
	for d := uint64(0); d < 64; d++ {
		vals = append(vals, hs-d, hs+d, 0x3ff0000000000000-d, 0x3ff0000000000000+d)
	}
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 1<<16; n++ {
		switch n % 4 {
		case 0: // anything
			vals = append(vals, rng.Uint64())
		case 1: // subnormal
			vals = append(vals, rng.Uint64()>>12)
		case 2: // a proportion
			vals = append(vals, math.Float64bits(rng.Float64()))
		default: // a frac just below √2/2 in a random binade
			vals = append(vals, hs-uint64(rng.Intn(1<<20))+uint64(rng.Intn(2000)-1000)<<52)
		}
	}
	for len(vals)%4 != 0 {
		vals = append(vals, 0)
	}
	for k := 0; k < len(vals); k += 4 {
		requireLog2x4(t, [4]uint64(vals[k:k+4]))
	}
}

// gainLossInputs draws one batched-pass row from fuzz bytes: n cells'
// normalizers and, for each of X states, their Σd, Σρ and Σρ·log₂ρ. All
// are finite (with NaN inputs the payload of a sum of two NaNs would
// depend on operand order), and mix ±0, small integers (so agg can be an
// exact power of two), subnormals and raw bits.
func gainLossInputs(r *fuzzBytes, X, n int) (den, sd, sr, sl []float64) {
	tiny := func() float64 {
		v := r.finite()
		if r.next()%4 == 0 {
			v = math.Float64frombits(math.Float64bits(v) >> 12) // a subnormal
		}
		return v
	}
	den = make([]float64, n)
	for c := range den {
		den[c] = tiny()
	}
	sd, sr, sl = make([]float64, X*n), make([]float64, X*n), make([]float64, X*n)
	for b := range sd {
		sd[b], sr[b], sl[b] = tiny(), tiny(), tiny()
	}
	return den, sd, sr, sl
}

// FuzzGainLossRow compares gainLossRowAVX2 with the portable body bit
// for bit — every gain and loss cell of the row — for 0..8 states and
// 1..70 cells (full four-cell steps and every tail length), and checks
// that neither body writes past the row.
func FuzzGainLossRow(f *testing.F) {
	if cpuKernel() < kernelAVX2 {
		f.Skip("no gainLossRowAVX2 on this CPU")
	}
	f.Add(uint8(6), uint8(40), []byte{4, 1, 0, 0, 0, 0, 0, 0, 2, 4, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(1), uint8(3), []byte{0, 9, 1, 4, 0xff, 0x80, 7})
	f.Fuzz(func(t *testing.T, x, w uint8, data []byte) {
		X, n := int(x)%9, 1+int(w)%70
		r := fuzzBytes{data: data}
		den, sd, sr, sl := gainLossInputs(&r, X, n)
		sentinel := math.Float64frombits(0x7ff4000000000bad)
		fill := func() []float64 {
			s := make([]float64, n+4)
			for c := range s {
				s[c] = sentinel
			}
			return s
		}
		goGain, goLoss, gain, loss := fill(), fill(), fill(), fill()
		gainLossRowGo(den, sd, sr, sl, goGain[:n], goLoss[:n])
		gainLossRowAVX2(den, sd, sr, sl, gain[:n], loss[:n])
		for c := range gain {
			if math.Float64bits(gain[c]) != math.Float64bits(goGain[c]) ||
				math.Float64bits(loss[c]) != math.Float64bits(goLoss[c]) {
				t.Fatalf("X=%d n=%d: cell %d: AVX2 (gain %v, loss %v), Go (gain %v, loss %v)",
					X, n, c, gain[c], loss[c], goGain[c], goLoss[c])
			}
		}
	})
}

// gainLossModel is a |X|-state model over a 24-leaf hierarchy and |T|
// unit slices, every leaf spending a random share of each slice in each
// state (some shares zero).
func gainLossModel(tb testing.TB, X, T int) *microscopic.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	paths := make([]string, 24)
	for s := range paths {
		paths[s] = "c" + strconv.Itoa(s%3) + "/n" + strconv.Itoa(s%6) + "/r" + strconv.Itoa(s)
	}
	h, err := hierarchy.FromPaths(paths)
	if err != nil {
		tb.Fatal(err)
	}
	sl, err := timeslice.New(0, float64(T), T)
	if err != nil {
		tb.Fatal(err)
	}
	states := make([]string, X)
	for x := range states {
		states[x] = "x" + strconv.Itoa(x)
	}
	m := microscopic.NewEmpty(h, sl, states)
	for s := range paths {
		for t := 0; t < T; t++ {
			for x := 0; x < X; x++ {
				if rng.Intn(4) > 0 {
					m.AddD(x, s, t, rng.Float64()/float64(X))
				}
			}
		}
	}
	return m
}

// BenchmarkGainLossRow_* time the input pass's row fill alone — both of
// fillRow's passes over every row of the root's triangle, |X| = 6 and
// |T| = 40 — once with each gainLossRow body, so the vector kernel's
// speed-up can be read apart from the end-to-end builds.
func BenchmarkGainLossRow_Go(b *testing.B)   { benchGainLossRow(b, kernelGo) }
func BenchmarkGainLossRow_AVX2(b *testing.B) { benchGainLossRow(b, kernelAVX2) }

func benchGainLossRow(b *testing.B, body kernelLevel) {
	if body > cpuKernel() {
		b.Skip("no gainLossRowAVX2 on this CPU")
	}
	defer setKernel(body)()
	in := testInput(b, gainLossModel(b, 6, 40), Options{Workers: 1})
	sc := in.newRowSums()
	want := slices.Clone(in.gain)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < in.T; i++ {
			in.fillRow(in.rootID, i, i, sc)
		}
	}
	b.StopTimer()
	if !slices.Equal(in.gain, want) {
		b.Fatal("refilling the root's rows changed its gains")
	}
}
