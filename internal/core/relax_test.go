package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ocelotl/internal/hierarchy"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/partition"
	"ocelotl/internal/timeslice"
)

// refIterateCellsLanes is a verbatim copy of the cell-major triangular
// iteration the cut-major kernel replaced: per cell (i, j), the no-cut and
// spatial candidates, then every temporal cut of that one cell, with the
// right parts walked down column j by the triIndex stride and a scalar
// branch for one lane.
func refIterateCellsLanes(s *Solver, sl laneSlab, id, K int, eff *[MaxLanes]float64) {
	in := s.in
	T := in.T
	off := in.offs[id]
	gain := in.gain[off : off+in.cells]
	loss := in.loss[off : off+in.cells]
	pic := sl.pic[off*K : (off+in.cells)*K]
	cuts := sl.cut[off*K : (off+in.cells)*K]
	childOffs := in.meta[id].childOffs
	p := eff[:K:K]
	var qa, best, thr, sums [MaxLanes]float64
	var bestCutA [MaxLanes]int32
	q := qa[:K:K]
	for k := range p {
		q[k] = 1 - p[k]
	}
	bst, th, bestCut := best[:K:K], thr[:K:K], bestCutA[:K:K]
	for i := T - 1; i >= 0; i-- {
		base := i*T - i*(i-1)/2  // triIndex(i, i)
		nextBase := base + T - i // triIndex(i+1, i+1)
		rowPic := pic[base*K:]
		for j := i; j < T; j++ {
			idx := base + (j - i)
			g, l := gain[idx], loss[idx]
			for k := range bst {
				b := p[k]*g - q[k]*l // no cut
				bst[k], th[k], bestCut[k] = b, improveThr(b), int32(j)
			}
			if len(childOffs) > 0 { // spatial cut?
				sm := sums[:K:K]
				for k := range sm {
					sm[k] = 0
				}
				for _, co := range childOffs {
					cb := (co + idx) * K
					cp := sl.pic[cb : cb+K : cb+K]
					for k := range sm {
						sm[k] += cp[k]
					}
				}
				for k := range sm {
					if sm[k] > th[k] {
						bst[k], th[k], bestCut[k] = sm[k], improveThr(sm[k]), CutSpatial
					}
				}
			}
			rIdx := nextBase + (j - i - 1)
			if K == 1 {
				b, t, c := bst[0], th[0], bestCut[0]
				for cut := i; cut < j; cut++ {
					if v := rowPic[cut-i] + pic[rIdx]; v > t {
						b, t, c = v, improveThr(v), int32(cut)
					}
					rIdx += T - cut - 2
				}
				bst[0], th[0], bestCut[0] = b, t, c
			} else {
				for cut := i; cut < j; cut++ {
					lb := (cut - i) * K
					lp := rowPic[lb : lb+K : lb+K]
					rb := rIdx * K
					rp := pic[rb : rb+K : rb+K]
					for k := range lp {
						if v := lp[k] + rp[k]; v > th[k] {
							bst[k], th[k], bestCut[k] = v, improveThr(v), int32(cut)
						}
					}
					rIdx += T - cut - 2
				}
			}
			ob := idx * K
			op := pic[ob : ob+K : ob+K]
			oc := cuts[ob : ob+K : ob+K]
			for k := range op {
				op[k], oc[k] = bst[k], bestCut[k]
			}
		}
	}
}

// kernelBodies lists the kernel levels this CPU can run: the portable
// bodies always, the AVX2 ones where the CPU has AVX2, relaxRowAVX512
// where it has AVX-512.
func kernelBodies() []kernelLevel {
	var levels []kernelLevel
	for k := kernelGo; k <= cpuKernel(); k++ {
		levels = append(levels, k)
	}
	return levels
}

// bodyName is a kernel level's subtest name: avx2=false for the portable
// bodies, avx2=true for the AVX2 ones, avx512=true for relaxRowAVX512.
func bodyName(k kernelLevel) string {
	switch k {
	case kernelAVX512:
		return "avx512=true"
	case kernelAVX2:
		return "avx2=true"
	}
	return "avx2=false"
}

// setKernel selects the row kernels' bodies and returns a func restoring
// the previous choice.
func setKernel(k kernelLevel) func() {
	prev := kernel
	kernel = k
	return func() { kernel = prev }
}

// solveArenas runs one K-lane block's node walk on a fresh solver and a
// fresh zeroed slab with the given triangular iteration and returns the
// slab's pIC and cut arenas.
func solveArenas(in *Input, ps []float64, iterate func(s *Solver, sl laneSlab, id, K int, eff *[MaxLanes]float64)) ([]float64, []int32) {
	s := in.NewSolver()
	K := len(ps)
	sl := freshSlab(in, K)
	var eff [MaxLanes]float64
	for k, p := range ps {
		eff[k] = in.effectiveP(p)
	}
	s.walkParallel(context.Background(), in.rootID, nil, func(id int) { iterate(s, sl, id, K, &eff) })
	return sl.pic, sl.cut
}

// freshSlab is a zeroed K-lane slab of in's shape.
func freshSlab(in *Input, K int) laneSlab {
	return laneSlab{pic: make([]float64, len(in.gain)*K), cut: make([]int32, len(in.gain)*K), thr: make([]float64, len(in.meta)*in.T*K)}
}

// homogeneousModel is a tie-heavy model: every leaf spends the same share
// of every slice in every state, so many alternatives of a cell score the
// same pIC up to rounding and the strict compare decides between them.
func homogeneousModel(rng *rand.Rand) *microscopic.Model {
	h, err := hierarchy.FromPaths(randomHierarchyPaths(rng, 2+rng.Intn(7)))
	if err != nil {
		panic(err)
	}
	T := 4 + rng.Intn(12)
	sl, _ := timeslice.New(0, float64(T), T)
	X := 1 + rng.Intn(3)
	states := make([]string, X)
	shares := make([]float64, X)
	for x := range states {
		states[x] = "x" + strconv.Itoa(x)
		shares[x] = rng.Float64() / float64(X)
	}
	m := microscopic.NewEmpty(h, sl, states)
	for s := 0; s < h.NumLeaves(); s++ {
		for ti := 0; ti < T; ti++ {
			for x, share := range shares {
				m.AddD(x, s, ti, share)
			}
		}
	}
	return m
}

// TestCutMajorKernelBitIdentical compares the cut-major kernel with the
// verbatim cell-major reference cell by cell — the Float64bits of every
// pIC lane and every cut — on random and homogeneous models for every
// block width 1..MaxLanes, and on a 70-slice model whose widest blocks
// have the longest threshold rows, once with each relaxRow body the CPU
// runs. It checks that the kernel level starts at the CPU's widest, and
// logs the bodies it ran and those the CPU lacks (go test -v shows it).
func TestCutMajorKernelBitIdentical(t *testing.T) {
	if kernel != cpuKernel() {
		t.Fatalf("kernel level %d, want the CPU's %d", kernel, cpuKernel())
	}
	names := [...]string{"relaxRow", "relaxRowAVX2", "relaxRowAVX512"}
	t.Logf("relaxRow bodies run: %v; not on this CPU: %v", names[:cpuKernel()+1], names[cpuKernel()+1:])
	for _, body := range kernelBodies() {
		t.Run(bodyName(body), func(t *testing.T) {
			defer setKernel(body)()
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 12; trial++ {
				var m *microscopic.Model
				if trial%2 == 0 {
					m = randomFusedModel(rng)
				} else {
					m = homogeneousModel(rng)
				}
				in := testInput(t, m, Options{Workers: 1, Normalize: trial%4 == 1})
				checkKernelBitIdentical(t, in, rng, "trial "+strconv.Itoa(trial), 1)
			}
			in := testInput(t, scalingModel(t, 6, 70), Options{Workers: 1})
			checkKernelBitIdentical(t, in, rng, "6x70", 13)
		})
	}
}

// checkKernelBitIdentical solves in with random p blocks of every width
// minK..MaxLanes through both the cut-major kernel and the cell-major
// reference and fails on the first lane cell whose pIC bits or cut differ.
func checkKernelBitIdentical(t *testing.T, in *Input, rng *rand.Rand, model string, minK int) {
	t.Helper()
	for K := minK; K <= MaxLanes; K++ {
		ps := make([]float64, K)
		for k := range ps {
			ps[k] = rng.Float64()
			if rng.Intn(5) == 0 { // an endpoint
				ps[k] = float64(rng.Intn(2))
			}
		}
		label := model + " K=" + strconv.Itoa(K)
		gotPic, gotCut := solveArenas(in, ps, (*Solver).iterateCellsLanes)
		wantPic, wantCut := solveArenas(in, ps, refIterateCellsLanes)
		for c := range wantPic {
			if math.Float64bits(gotPic[c]) != math.Float64bits(wantPic[c]) || gotCut[c] != wantCut[c] {
				t.Fatalf("%s: lane cell %d: pIC %v cut %d, reference pIC %v cut %d",
					label, c, gotPic[c], gotCut[c], wantPic[c], wantCut[c])
			}
		}
	}
}

// TestRunLanesAllocs pins runLanes' allocations on a warm free list to
// what the cell-major kernel made: the partitions it returns and nothing
// per node — the kernel's threshold strips are part of the borrowed slab
// (both vector bodies are go:noescape, so nothing else escapes either),
// for short rows (the 24×40 model) and long ones (the 6×70 model at
// K = 15 and 16), with each relaxRow body the CPU runs.
func TestRunLanesAllocs(t *testing.T) {
	for _, c := range []struct {
		S, T   int
		allocs map[int]float64 // by K
	}{
		{24, 40, map[int]float64{1: 12, 8: 81, 16: 159}},
		{6, 70, map[int]float64{1: 11, 8: 71, 15: 129, 16: 138}},
	} {
		in := testInput(t, scalingModel(t, c.S, c.T), Options{Workers: 1})
		s := in.NewSolver()
		// Slabs other tests left may be too small for this shape; from an
		// empty free list the warm-up run leaves one that fits.
		drainLaneSlabs()
		for _, body := range kernelBodies() {
			t.Run(strconv.Itoa(c.S)+"x"+strconv.Itoa(c.T)+"/"+bodyName(body), func(t *testing.T) {
				defer setKernel(body)()
				for K, want := range c.allocs {
					ps := make([]float64, K)
					for k := range ps {
						ps[k] = float64(k+1) / float64(K+1)
					}
					out := make([]*partition.Partition, K)
					got := testing.AllocsPerRun(5, func() {
						if err := s.runLanes(context.Background(), ps, out); err != nil {
							t.Fatal(err)
						}
					})
					if got != want {
						t.Errorf("K=%d: runLanes allocates %v times per run, want %v", K, got, want)
					}
				}
			})
		}
	}
}

// fuzzBytes reads fuzz input one byte at a time, cycling through it so a
// short input still fills a long row; an empty input reads zeros.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (r *fuzzBytes) next() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.pos%len(r.data)]
	r.pos++
	return b
}

// value decodes one nine-byte value: a selector byte, then eight bytes of
// raw bits that are always consumed. The selector picks ±0, ±Inf, a small
// integer, tie (the caller's near-tie target), the next float above tie,
// or the raw bits. It never returns NaN (raw NaN bits read as +0): a pIC
// value never is one, and NaN payloads depend on operand order.
func (r *fuzzBytes) value(tie float64) float64 {
	sel := r.next()
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(r.next())
	}
	switch sel % 8 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return float64(int8(bits))
	case 5:
		return tie
	case 6:
		return math.Nextafter(tie, math.Inf(1))
	}
	if v := math.Float64frombits(bits); !math.IsNaN(v) {
		return v
	}
	return 0
}

// finite is value without the infinities, for gains and losses: with
// them p·g − q·l could be Inf − Inf.
func (r *fuzzBytes) finite() float64 {
	if v := r.value(0); !math.IsInf(v, 0) {
		return v
	}
	return 1
}

// vectorRelaxRows are relaxRow's vector bodies, each with the kernel
// level a CPU needs to run it.
var vectorRelaxRows = []struct {
	name  string
	level kernelLevel
	run   func(p, q, g, l, tri, th []float64, c []int32, kids []float64, childOffs []int, i int)
}{
	{"relaxRowAVX2", kernelAVX2, relaxRowAVX2},
	{"relaxRowAVX512", kernelAVX512, relaxRowAVX512},
}

// FuzzRelaxRow compares each vector body of relaxRow the CPU runs with
// the portable body bit for bit — every P, TH and C lane of the row —
// for K = 1..MaxLanes, rows of 1..80 strips (past T·K = 1024 included)
// and 0..5 children in a fuzzed order. Child strips can tie or just beat
// the no-cut threshold, or sum to −0; the first cut's right parts can tie
// or just beat it too. It logs each body the CPU cannot run, and skips
// when that is every one.
func FuzzRelaxRow(f *testing.F) {
	for _, b := range vectorRelaxRows {
		if b.level > cpuKernel() {
			f.Logf("%s skipped: this CPU does not run it", b.name)
		}
	}
	if cpuKernel() == kernelGo {
		f.Skip("no vector relaxRow body on this CPU")
	}
	f.Add(uint8(0), uint8(12), uint8(0), []byte{3, 200, 7, 1, 2, 3, 4, 5, 6, 7, 8, 5, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(7), uint8(6), uint8(2), []byte{1, 90, 17, 33, 6, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 4})
	f.Add(uint8(15), uint8(3), uint8(5), []byte{0, 255, 0, 128, 64, 7, 0x40, 1, 2, 3, 4, 5, 6, 7, 1})
	f.Fuzz(func(t *testing.T, k, w, nk uint8, data []byte) {
		K := 1 + int(k)%MaxLanes
		W := 1 + int(w)%80 // the row's strips: T − i
		r := fuzzBytes{data: data}
		i := int(r.next() % 8)
		n := W * K
		p, q := make([]float64, K), make([]float64, K)
		for k := range p {
			p[k] = float64(r.next()) / 255
			q[k] = 1 - p[k]
		}
		g, l := make([]float64, W), make([]float64, W)
		for s := range g {
			g[s], l[s] = r.finite(), r.finite()
		}
		noCut := make([]float64, n)
		for m := range noCut {
			noCut[m] = p[m%K]*g[m/K] - q[m%K]*l[m/K]
		}
		// Child c's row strip sits at strip offset c·W of kids, in
		// ascending or descending child order.
		childOffs := make([]int, int(nk)%6)
		desc := r.next()%2 == 1
		for c := range childOffs {
			childOffs[c] = c * W
			if desc {
				childOffs[c] = (len(childOffs) - 1 - c) * W
			}
		}
		kids := make([]float64, len(childOffs)*n)
		for m := range kids {
			kids[m] = r.value(improveThr(noCut[m%n]))
		}
		// tri: the row, then rows i+1..T−1 (W−1 strips down to one).
		tri := make([]float64, W*(W+1)/2*K)
		for m := n; m < len(tri); m++ {
			tie := 0.0
			if m < 2*n-K { // row i+1: the first cut's right parts
				j := m - n + K
				tie = improveThr(noCut[j]) - noCut[j%K]
			}
			tri[m] = r.value(tie)
		}
		goTri, goTH, goC := slices.Clone(tri), make([]float64, n), make([]int32, n)
		relaxRow(p, q, g, l, goTri, goTH, goC, kids, childOffs, i)
		for _, b := range vectorRelaxRows {
			if b.level > cpuKernel() {
				continue
			}
			tri, th, c := slices.Clone(tri), make([]float64, n), make([]int32, n)
			b.run(p, q, g, l, tri, th, c, kids, childOffs, i)
			for m := range tri {
				if math.Float64bits(tri[m]) != math.Float64bits(goTri[m]) {
					t.Fatalf("%s K=%d W=%d kids=%d: pIC %d: %v, Go %v", b.name, K, W, len(childOffs), m, tri[m], goTri[m])
				}
			}
			for m := range th {
				if math.Float64bits(th[m]) != math.Float64bits(goTH[m]) || c[m] != goC[m] {
					t.Fatalf("%s K=%d W=%d kids=%d: lane %d: (TH %v, C %d), Go (TH %v, C %d)",
						b.name, K, W, len(childOffs), m, th[m], c[m], goTH[m], goC[m])
				}
			}
		}
	})
}

// scalingModel is the root benchmarks' artificial |S|×|T| model.
func scalingModel(tb testing.TB, S, T int) *microscopic.Model {
	tb.Helper()
	m, err := microscopic.Build(mpisim.ArtificialSized(S, T), microscopic.Options{Slices: T})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkSolveLanes_K* time the Algorithm 1 kernel alone: one K-lane
// runLanes block on a warm free list over a prebuilt 96×40 Input, with no
// input pass, memo or pool in the timed loop. ns/p is the cost per
// answered p; K=8 is the sweep's lane width on two cores.
func BenchmarkSolveLanes_K1(b *testing.B)  { benchSolveLanes(b, 1) }
func BenchmarkSolveLanes_K8(b *testing.B)  { benchSolveLanes(b, 8) }
func BenchmarkSolveLanes_K16(b *testing.B) { benchSolveLanes(b, 16) }

func benchSolveLanes(b *testing.B, K int) {
	in := testInput(b, scalingModel(b, 96, 40), Options{Workers: 1})
	s := in.NewSolver()
	ps := make([]float64, K)
	for k := range ps {
		ps[k] = float64(k+1) / float64(K+1)
	}
	out := make([]*partition.Partition, K)
	ctx := context.Background()
	if err := s.runLanes(ctx, ps, out); err != nil { // leave a fitting slab on the free list
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.runLanes(ctx, ps, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*K), "ns/p")
}

// BenchmarkRelaxRow_* time the Algorithm 1 row kernel alone, once with
// each relaxRow body: every row of the root's triangle at K = 8 over the
// prebuilt |X| = 6, |T| = 40 Input of BenchmarkGainLossRow_*, its
// children solved once before the timer starts.
func BenchmarkRelaxRow_Go(b *testing.B)     { benchRelaxRow(b, kernelGo) }
func BenchmarkRelaxRow_AVX2(b *testing.B)   { benchRelaxRow(b, kernelAVX2) }
func BenchmarkRelaxRow_AVX512(b *testing.B) { benchRelaxRow(b, kernelAVX512) }

func benchRelaxRow(b *testing.B, body kernelLevel) {
	if body > cpuKernel() {
		b.Skip("this CPU does not run the body")
	}
	defer setKernel(body)()
	in := testInput(b, gainLossModel(b, 6, 40), Options{Workers: 1})
	s := in.NewSolver()
	const K = 8
	sl := freshSlab(in, K)
	var eff [MaxLanes]float64
	for k := range eff[:K] {
		eff[k] = in.effectiveP(float64(k+1) / (K + 1))
	}
	s.walkParallel(context.Background(), in.rootID, nil, func(id int) { s.iterateCellsLanes(sl, id, K, &eff) })
	want := slices.Clone(sl.pic)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.iterateCellsLanes(sl, in.rootID, K, &eff)
	}
	b.StopTimer()
	if !slices.Equal(sl.pic, want) {
		b.Fatal("re-solving the root's rows changed its pIC")
	}
}
