package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/partition"
)

// samePartition reports why got differs from want, or "" when they are
// equal to the bit: gain, loss, pIC and p bits, every area, and the
// signature.
func samePartition(got, want *partition.Partition) string {
	bits := math.Float64bits
	switch {
	case bits(got.P) != bits(want.P):
		return "p differs"
	case bits(got.Gain) != bits(want.Gain) || bits(got.Loss) != bits(want.Loss) || bits(got.PIC) != bits(want.PIC):
		return "gain/loss/pIC differ"
	case len(got.Areas) != len(want.Areas):
		return "area counts differ"
	case got.Signature() != want.Signature():
		return "signatures differ"
	}
	for k := range want.Areas {
		if got.Areas[k] != want.Areas[k] {
			return "areas differ"
		}
	}
	return ""
}

// sameQuality is samePartition for quality-curve samples.
func sameQuality(got, want QualityPoint) bool {
	bits := math.Float64bits
	return bits(got.P) == bits(want.P) && bits(got.Gain) == bits(want.Gain) &&
		bits(got.Loss) == bits(want.Loss) && got.Areas == want.Areas && got.Signature == want.Signature
}

// TestMemoMatchesFreshInputs is the memo's property test: over random
// shapes and p multisets with repeats, every entry point called on one
// long-lived Input — mixed, so answers stored by one are read back by
// the others — returns exactly what a memo-free solve on a fresh Input
// returns.
func TestMemoMatchesFreshInputs(t *testing.T) {
	trials := 16
	if testing.Short() {
		trials = 4
	}
	ctx := context.Background()
	var hits int64
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		m := randomFusedModel(rng)
		opt := Options{Normalize: trial%2 == 1, Workers: 1 + rng.Intn(4)}
		in := testInput(t, m, opt)
		// A small pool of ps makes repeats within and across calls common.
		pool := randomPs(rng)
		pool = append(pool, 0.5, 0.25)
		draw := func(n int) []float64 {
			ps := make([]float64, n)
			for i := range ps {
				ps[i] = pool[rng.Intn(len(pool))]
			}
			return ps
		}
		for step := 0; step < 16; step++ {
			fresh := testInput(t, m, opt)
			ref := fresh.NewSolver()
			solve := func(p float64) *partition.Partition {
				pt, err := ref.RunContext(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				return pt
			}
			switch op := rng.Intn(4); op {
			case 0:
				p := draw(1)[0]
				got, err := in.SolveContext(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				if why := samePartition(got, solve(p)); why != "" {
					t.Fatalf("trial %d step %d: SolveContext(%v): %s", trial, step, p, why)
				}
			case 1:
				ps := draw(rng.Intn(2 * MaxLanes))
				got, err := in.SweepRunContext(ctx, ps)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range ps {
					if why := samePartition(got[i], solve(p)); why != "" {
						t.Fatalf("trial %d step %d: SweepRunContext at p=%v: %s", trial, step, p, why)
					}
				}
			case 2:
				ps := draw(rng.Intn(2 * MaxLanes))
				got, err := in.SweepQualityContext(ctx, ps)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range ps {
					if want := qualityOf(p, solve(p)); !sameQuality(got[i], want) {
						t.Fatalf("trial %d step %d: SweepQualityContext at p=%v: %+v vs %+v", trial, step, p, got[i], want)
					}
				}
			case 3:
				eps := []float64{1e-2, 7e-3, 5e-3}[rng.Intn(3)]
				got, err := in.SignificantPsContext(ctx, eps)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.SignificantPsContext(ctx, eps)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d step %d: ladder has %d points, want %d", trial, step, len(got), len(want))
				}
				for i := range want {
					if !sameQuality(got[i], want[i]) {
						t.Fatalf("trial %d step %d: ladder point %d: %+v vs %+v", trial, step, i, got[i], want[i])
					}
				}
			}
		}
		hits += in.MemoStats().Hits
	}
	if hits == 0 {
		t.Fatal("no entry point ever hit the memo; the property test exercised nothing")
	}
}

// TestMemoAggregateSolvesSweepSummaries: a p first seen by a sweep is
// held only as a summary, so a per-p SolveContext there misses and runs
// a one-lane solve; afterwards the partition is memoized and both
// kinds of query hit.
func TestMemoAggregateSolvesSweepSummaries(t *testing.T) {
	in := cancelTestInput(t, Options{Workers: 2})
	ctx := context.Background()
	ps := sweepPs(5)
	if _, err := in.SweepQualityContext(ctx, ps); err != nil {
		t.Fatal(err)
	}
	before := in.MemoStats()
	if _, err := in.SolveContext(ctx, ps[2]); err != nil {
		t.Fatal(err)
	}
	if st := in.MemoStats(); st.Misses != before.Misses+1 || st.Hits != before.Hits {
		t.Fatalf("SolveContext at a sweep-summarized p: stats %+v after %+v, want one miss", st, before)
	}
	if _, err := in.SolveContext(ctx, ps[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := in.SweepRunContext(ctx, ps[2:3]); err != nil {
		t.Fatal(err)
	}
	if st := in.MemoStats(); st.Hits != before.Hits+2 {
		t.Fatalf("repeat queries at a solved p: stats %+v after %+v, want two hits", st, before)
	}
}

// TestMemoConcurrentEntryPoints runs every entry point from many
// goroutines on one Input over overlapping ps, so memo stores, reads and
// generation turns race each other. Under -race it proves the memo is
// safe and that no caller mutates a shared memoized partition.
func TestMemoConcurrentEntryPoints(t *testing.T) {
	m := widerModel(t, 9)
	in := testInput(t, m, Options{Workers: 4})
	ctx := context.Background()
	ps := sweepPs(11)
	ref := testInput(t, m, Options{Workers: 1}).NewSolver()
	want := make([]*partition.Partition, len(ps))
	for i, p := range ps {
		pt, err := ref.RunContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pt
	}
	wantSig, err := testInput(t, m, Options{Workers: 1}).SignificantPsContext(ctx, 1e-2)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				switch (g + round) % 4 {
				case 0:
					for i, p := range ps {
						pt, err := in.SolveContext(ctx, p)
						if err != nil {
							t.Error(err)
							return
						}
						if why := samePartition(pt, want[i]); why != "" {
							t.Errorf("goroutine %d: SolveContext(%v): %s", g, p, why)
						}
					}
				case 1:
					pts, err := in.SweepRunContext(ctx, ps)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range ps {
						if why := samePartition(pts[i], want[i]); why != "" {
							t.Errorf("goroutine %d: SweepRunContext at p=%v: %s", g, ps[i], why)
						}
					}
				case 2:
					qs, err := in.SweepQualityContext(ctx, ps)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range ps {
						if !sameQuality(qs[i], qualityOf(ps[i], want[i])) {
							t.Errorf("goroutine %d: SweepQualityContext at p=%v differs", g, ps[i])
						}
					}
				case 3:
					got, err := in.SignificantPsContext(ctx, 1e-2)
					if err != nil {
						t.Error(err)
						return
					}
					if len(got) != len(wantSig) {
						t.Errorf("goroutine %d: ladder has %d points, want %d", g, len(got), len(wantSig))
						return
					}
					for i := range got {
						if !sameQuality(got[i], wantSig[i]) {
							t.Errorf("goroutine %d: ladder point %d differs", g, i)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if in.MemoStats().Hits == 0 {
		t.Fatal("concurrent entry points never hit the memo")
	}
}

// TestMemoBoundedAndCharged feeds an Input 10k fresh ps and checks after
// every call that the memo stays within its cap and that MemoryBytes
// moves by exactly the memo's bytes.
func TestMemoBoundedAndCharged(t *testing.T) {
	mdl, err := microscopic.Build(mpisim.ArtificialSized(8, 12), microscopic.Options{Slices: 12})
	if err != nil {
		t.Fatal(err)
	}
	in := testInput(t, mdl, Options{Workers: 1})
	ctx := context.Background()
	if st := in.MemoStats(); st.CapBytes != memoShare*in.MemoryBytes() || st.Bytes != 0 {
		t.Fatalf("fresh memo %+v, want empty with cap %d", st, memoShare*in.MemoryBytes())
	}
	// Every change in MemoryBytes from here on must be the memo's.
	if _, err := in.SweepQualityContext(ctx, sweepPs(MaxLanes)); err != nil {
		t.Fatal(err)
	}
	base := in.MemoryBytes() - in.MemoStats().Bytes

	rng := rand.New(rand.NewSource(5))
	maxEntries := 0
	const total = 10000
	for n := 0; n < total; n += MaxLanes {
		ps := make([]float64, MaxLanes)
		for i := range ps {
			ps[i] = rng.Float64()
		}
		if _, err := in.SweepQualityContext(ctx, ps); err != nil {
			t.Fatal(err)
		}
		if n%(8*MaxLanes) == 0 {
			if _, err := in.SolveContext(ctx, ps[0]); err != nil {
				t.Fatal(err)
			}
		}
		st := in.MemoStats()
		if st.Bytes > st.CapBytes {
			t.Fatalf("after %d ps the memo holds %d bytes, over its cap %d", n+MaxLanes, st.Bytes, st.CapBytes)
		}
		if got := in.MemoryBytes(); got != base+st.Bytes {
			t.Fatalf("after %d ps MemoryBytes = %d, want %d (base %d + memo %d)", n+MaxLanes, got, base+st.Bytes, base, st.Bytes)
		}
		if st.Entries > maxEntries {
			maxEntries = st.Entries
		}
	}
	st := in.MemoStats()
	if maxEntries < MaxLanes || st.Entries >= total {
		t.Fatalf("memo peaked at %d entries and ends with %d of %d fresh ps: the test must store and evict", maxEntries, st.Entries, total)
	}
	if st.Misses < total {
		t.Fatalf("%d misses for %d fresh ps", st.Misses, total)
	}
}
