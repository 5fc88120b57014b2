// Benchmark harness: one benchmark (family) per table and figure of the
// paper's evaluation (§V), plus the scaling ablations backing the §III
// complexity claims. Run with:
//
//	go test -bench=. -benchmem
//
// Event counts are scaled (see benchScale) so the suite completes in
// minutes; the *shapes* — reading ≫ microscopic ≫ aggregation, cubic |T|
// scaling, linear |S| scaling, core ≥ product — are what reproduce the
// paper, not the absolute numbers measured on the authors' testbed.
package ocelotl

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/partition"
	"ocelotl/internal/product"
	"ocelotl/internal/render"
	"ocelotl/internal/server"
	"ocelotl/internal/spatial"
	"ocelotl/internal/temporal"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// benchScale keeps per-case event budgets tractable: ~1/50th of the
// paper's counts (case C ≈ 4.4M events instead of 218M).
const benchScale = 0.02

type caseData struct {
	res   *mpisim.Result
	model *microscopic.Model
	in    *core.Input
	path  string // binary trace on disk
}

var (
	caseMu    sync.Mutex
	caseCache = map[grid5000.Case]*caseData{}
	benchDir  string
)

// TestMain removes the benchmarks' generated trace files on exit.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

// loadCase generates (once) a scaled Table II case, its on-disk binary
// trace, its microscopic model and its prepared Input.
func loadCase(b *testing.B, c grid5000.Case) *caseData {
	b.Helper()
	caseMu.Lock()
	defer caseMu.Unlock()
	if d, ok := caseCache[c]; ok {
		return d
	}
	if benchDir == "" {
		dir, err := os.MkdirTemp("", "ocelotl-bench-")
		if err != nil {
			b.Fatal(err)
		}
		benchDir = dir
	}
	res, err := mpisim.GenerateCase(c, mpisim.Config{Seed: 42, Scale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(benchDir, fmt.Sprintf("case%s.bin", c))
	if err := traceio.WriteFile(path, res.Trace); err != nil {
		b.Fatal(err)
	}
	model, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
	if err != nil {
		b.Fatal(err)
	}
	d := &caseData{res: res, model: model, in: benchInput(b, model, core.Options{}), path: path}
	caseCache[c] = d
	return d
}

// benchInput runs the input pass, failing the benchmark on error.
func benchInput(b *testing.B, m *microscopic.Model, opt core.Options) *core.Input {
	b.Helper()
	in, err := core.NewInputContext(context.Background(), m, opt)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// runSolve answers one p on a new solver, whose run borrows its
// scratch from the process-wide free list — the steady-state per-query
// cost of a long-lived Input, as the serving layer pays it.
func runSolve(b *testing.B, in *core.Input, p float64) *partition.Partition {
	b.Helper()
	pt, err := in.NewSolver().RunContext(context.Background(), p)
	if err != nil {
		b.Fatal(err)
	}
	return pt
}

// ---------------------------------------------------------------------------
// Table II: the three pipeline stages per case.

func benchTable2Read(b *testing.B, c grid5000.Case) {
	d := loadCase(b, c)
	st, _ := os.Stat(d.path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := traceio.OpenFile(d.path)
		if err != nil {
			b.Fatal(err)
		}
		var ev trace.Event
		for {
			if err := r.Next(&ev); err != nil {
				break
			}
		}
		r.Close()
	}
}

func BenchmarkTable2_Read_A(b *testing.B) { benchTable2Read(b, grid5000.CaseA) }
func BenchmarkTable2_Read_B(b *testing.B) { benchTable2Read(b, grid5000.CaseB) }
func BenchmarkTable2_Read_C(b *testing.B) { benchTable2Read(b, grid5000.CaseC) }
func BenchmarkTable2_Read_D(b *testing.B) { benchTable2Read(b, grid5000.CaseD) }

func benchTable2Microscopic(b *testing.B, c grid5000.Case) {
	d := loadCase(b, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := microscopic.Build(d.res.Trace, microscopic.Options{Slices: 30}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_Microscopic_A(b *testing.B) { benchTable2Microscopic(b, grid5000.CaseA) }
func BenchmarkTable2_Microscopic_B(b *testing.B) { benchTable2Microscopic(b, grid5000.CaseB) }
func BenchmarkTable2_Microscopic_C(b *testing.B) { benchTable2Microscopic(b, grid5000.CaseC) }
func BenchmarkTable2_Microscopic_D(b *testing.B) { benchTable2Microscopic(b, grid5000.CaseD) }

// The load: reading a binary trace file into the RAM event index, the
// fixed first cost of every served trace (perfbench explore's lag_p50_ms
// is dominated by it).

// loadIndexScale generates perfbench explore's trace: case A at scale
// 0.3, about 0.9M events.
const loadIndexScale = 0.3

var (
	loadIndexPath   string
	loadIndexEvents int
)

// loadIndexTrace writes (once per process) the explore-shaped binary
// trace and returns its path and event count.
func loadIndexTrace(b *testing.B) (string, int) {
	b.Helper()
	caseMu.Lock()
	defer caseMu.Unlock()
	if loadIndexPath != "" {
		return loadIndexPath, loadIndexEvents
	}
	if benchDir == "" {
		dir, err := os.MkdirTemp("", "ocelotl-bench-")
		if err != nil {
			b.Fatal(err)
		}
		benchDir = dir
	}
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 42, Scale: loadIndexScale})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(benchDir, "load-index.bin")
	if err := traceio.WriteFile(path, res.Trace); err != nil {
		b.Fatal(err)
	}
	loadIndexPath, loadIndexEvents = path, len(res.Trace.Events)
	return loadIndexPath, loadIndexEvents
}

func benchLoadIndex(b *testing.B, opt func(events int) microscopic.IndexOptions) {
	path, events := loadIndexTrace(b)
	o := opt(events)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := traceio.OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		r, err := microscopic.NewReslicerIndexed(src, o)
		src.Close()
		if err != nil {
			b.Fatal(err)
		}
		if r.NumEvents() != events {
			b.Fatalf("indexed %d events, want %d", r.NumEvents(), events)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkLoadIndex_RAM measures one load of the explore trace into the
// RAM index: open, decode, validate, index and freeze.
func BenchmarkLoadIndex_RAM(b *testing.B) {
	benchLoadIndex(b, func(int) microscopic.IndexOptions {
		return microscopic.IndexOptions{Mode: microscopic.IndexRAM}
	})
}

// BenchmarkLoadIndex_AutoSpill loads the same trace with an IndexAuto
// threshold at half its events, so the load spills to the disk store
// mid-stream: the RAM columns drain into the store builder, which takes
// the rest of the stream.
func BenchmarkLoadIndex_AutoSpill(b *testing.B) {
	dir := b.TempDir()
	benchLoadIndex(b, func(events int) microscopic.IndexOptions {
		return microscopic.IndexOptions{Mode: microscopic.IndexAuto, Threshold: int64(events / 2), Dir: dir}
	})
}

// The aggregation column measures both phases: building the tree of
// triangular matrices (Aggregation_Input) and one Algorithm 1 pass
// (Aggregation_Run — the per-slider-stop cost, "instantaneous" in §V).
func benchTable2AggInput(b *testing.B, c grid5000.Case) {
	d := loadCase(b, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchInput(b, d.model, core.Options{})
	}
}

func BenchmarkTable2_AggregationInput_A(b *testing.B) { benchTable2AggInput(b, grid5000.CaseA) }
func BenchmarkTable2_AggregationInput_C(b *testing.B) { benchTable2AggInput(b, grid5000.CaseC) }
func BenchmarkTable2_AggregationInput_D(b *testing.B) { benchTable2AggInput(b, grid5000.CaseD) }

func benchTable2AggRun(b *testing.B, c grid5000.Case) {
	d := loadCase(b, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSolve(b, d.in, 0.5)
	}
}

func BenchmarkTable2_AggregationRun_A(b *testing.B) { benchTable2AggRun(b, grid5000.CaseA) }
func BenchmarkTable2_AggregationRun_B(b *testing.B) { benchTable2AggRun(b, grid5000.CaseB) }
func BenchmarkTable2_AggregationRun_C(b *testing.B) { benchTable2AggRun(b, grid5000.CaseC) }
func BenchmarkTable2_AggregationRun_D(b *testing.B) { benchTable2AggRun(b, grid5000.CaseD) }

// ---------------------------------------------------------------------------
// Figure 1: the full case-A pipeline (aggregate + scene construction).

func BenchmarkFig1_CaseA_Overview(b *testing.B) {
	d := loadCase(b, grid5000.CaseA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := runSolve(b, d.in, 0.2)
		render.BuildScene(d.in, pt, render.Options{Width: 1000, Height: 512})
	}
}

// ---------------------------------------------------------------------------
// Figure 2: the Gantt rendering of the same trace (stats only — the paper's
// point is that drawing everything is the expensive, lossy path).

func BenchmarkFig2_Gantt_CaseA(b *testing.B) {
	d := loadCase(b, grid5000.CaseA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := render.Gantt(d.res.Trace, 1200, 512, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 3: the artificial-trace ladder (build + two aggregation levels +
// visual aggregation).

func BenchmarkFig3_Artificial(b *testing.B) {
	tr := mpisim.Artificial()
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 20})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := benchInput(b, m, core.Options{})
		solver := in.NewSolver()
		lo, err := solver.RunContext(ctx, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := solver.RunContext(ctx, 0.9); err != nil {
			b.Fatal(err)
		}
		render.BuildScene(in, lo, render.Options{Width: 480, Height: 36, MinHeight: 6})
	}
}

// ---------------------------------------------------------------------------
// Figure 4: the case-C overview.

func BenchmarkFig4_CaseC_Overview(b *testing.B) {
	d := loadCase(b, grid5000.CaseC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := runSolve(b, d.in, 0.35)
		render.BuildScene(d.in, pt, render.Options{Width: 1000, Height: 700, MinHeight: 2})
	}
}

// ---------------------------------------------------------------------------
// Scaling ablations: Algorithm 1 is O(|S|·|T|³) time with an O(|S|·|T|²)
// input pass. BenchmarkScaling_T_* should grow ~8× per doubling (run) and
// BenchmarkScaling_S_* ~2× per doubling.

func scalingModel(b *testing.B, S, T int) *microscopic.Model {
	b.Helper()
	m, err := microscopic.Build(mpisim.ArtificialSized(S, T), microscopic.Options{Slices: T})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchScalingT(b *testing.B, T int) {
	m := scalingModel(b, 48, T)
	in := benchInput(b, m, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSolve(b, in, 0.5)
	}
}

func BenchmarkScaling_T_16(b *testing.B)  { benchScalingT(b, 16) }
func BenchmarkScaling_T_32(b *testing.B)  { benchScalingT(b, 32) }
func BenchmarkScaling_T_64(b *testing.B)  { benchScalingT(b, 64) }
func BenchmarkScaling_T_128(b *testing.B) { benchScalingT(b, 128) }

func benchScalingS(b *testing.B, S int) {
	m := scalingModel(b, S, 32)
	in := benchInput(b, m, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSolve(b, in, 0.5)
	}
}

func BenchmarkScaling_S_24(b *testing.B)  { benchScalingS(b, 24) }
func BenchmarkScaling_S_96(b *testing.B)  { benchScalingS(b, 96) }
func BenchmarkScaling_S_384(b *testing.B) { benchScalingS(b, 384) }

// ---------------------------------------------------------------------------
// Baseline ablations (§III.D): the spatiotemporal algorithm versus the
// Cartesian product and the two 1-D algorithms on the same model.

func BenchmarkAblation_Spatiotemporal(b *testing.B) {
	m := scalingModel(b, 96, 30)
	in := benchInput(b, m, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSolve(b, in, 0.5)
	}
}

func BenchmarkAblation_Product(b *testing.B) {
	m := scalingModel(b, 96, 30)
	pa := product.New(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pa.Run(0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_SpatialOnly(b *testing.B) {
	m := scalingModel(b, 96, 30)
	sa := spatial.New(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sa.Run(0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_TemporalOnly(b *testing.B) {
	m := scalingModel(b, 96, 30)
	ta := temporal.New(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ta.Run(0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_SignificantPs measures the dichotomic slider-stop
// search (the interactive exploration cost) on a cold memo.
func BenchmarkAblation_SignificantPs(b *testing.B) {
	m := scalingModel(b, 48, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := coldMemoInput(b, m, core.Options{})
		if _, err := in.SignificantPsContext(context.Background(), 1e-3); err != nil {
			b.Fatal(err)
		}
		requireNoMemoHits(b, in)
	}
}

// coldMemoInput builds, off the clock, a fresh Input over m with an empty
// memo and warm scratch: a sweep at ps (i+1)/97 leaves full MaxLanes
// lane slabs on the process-wide free list, faulted in. No benchmarked p list
// or dichotomy samples a multiple of 1/97 (dyadic midpoints and the
// i/(n+1) grids never reduce to one), so the kernel benchmarks time the
// steady state of a solve — the latency a served slider sees on a
// first query — rather than memo hits or first-use page faults.
func coldMemoInput(b *testing.B, m *microscopic.Model, opt core.Options) *core.Input {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	runtime.GC() // collect the previous iteration's Input off the clock
	in := benchInput(b, m, opt)
	ps := make([]float64, 96)
	for i := range ps {
		ps[i] = float64(i+1) / 97
	}
	if _, err := in.SweepQualityContext(context.Background(), ps); err != nil {
		b.Fatal(err)
	}
	return in
}

// requireNoMemoHits fails a kernel benchmark whose timed work on a
// coldMemoInput was answered, even in part, from the memo.
func requireNoMemoHits(b *testing.B, in *core.Input) {
	b.Helper()
	if st := in.MemoStats(); st.Hits != 0 {
		b.Fatalf("timed iteration hit the memo %d times; the benchmark must time solves", st.Hits)
	}
}

// BenchmarkSignificantPs tracks the sweep-level cost of the full
// significant-p exploration — the end-to-end latency an analyst waits for
// slider stops — with the batched fused frontier at default workers and
// the Workers=1 reference, each on a cold memo. Since the batched rewrite,
// each dichotomy round solves all of its midpoints in one fused
// SweepQualityContext call, so the default-workers number improves over the
// committed pre-fusion baseline even on a single core; _Batched pins the
// same path under its post-rewrite name for the benchdiff trajectory.
// _Repeat is the warm path: the same ladder again on one Input, every
// point answered by the memo.
func BenchmarkSignificantPs(b *testing.B)            { benchSignificantPs(b, 0) }
func BenchmarkSignificantPs_Batched(b *testing.B)    { benchSignificantPs(b, 0) }
func BenchmarkSignificantPs_Sequential(b *testing.B) { benchSignificantPs(b, 1) }

func benchSignificantPs(b *testing.B, workers int) {
	m := scalingModel(b, 96, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := coldMemoInput(b, m, core.Options{Workers: workers})
		if _, err := in.SignificantPsContext(context.Background(), 1e-3); err != nil {
			b.Fatal(err)
		}
		requireNoMemoHits(b, in)
	}
}

func BenchmarkSignificantPs_Repeat(b *testing.B) {
	m := scalingModel(b, 96, 40)
	in := benchInput(b, m, core.Options{})
	if _, err := in.SignificantPsContext(context.Background(), 1e-3); err != nil {
		b.Fatal(err)
	}
	misses := in.MemoStats().Misses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.SignificantPsContext(context.Background(), 1e-3); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := in.MemoStats(); st.Misses != misses {
		b.Fatalf("repeat ladders missed the memo %d times", st.Misses-misses)
	}
}

// The fused-sweep family measures the tentpole economics directly: one
// lane-blocked SweepQualityContext call over n evenly spaced ps on a cold
// memo versus the unfused reference of n single-p runs
// (BenchmarkSweepSingle_K16 — what every caller paid before the fusion,
// and still the right baseline because the per-p kernels are unchanged).
// The acceptance bar is ≥ 1.5× throughput for the 16-p sweep; report ns/p
// to compare across n.
func BenchmarkSweepFused_K4(b *testing.B)  { benchSweepFused(b, 4) }
func BenchmarkSweepFused_K16(b *testing.B) { benchSweepFused(b, 16) }

func benchSweepPs(n int) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = float64(i+1) / float64(n+1)
	}
	return ps
}

func benchSweepFused(b *testing.B, n int) {
	m := scalingModel(b, 96, 40)
	ps := benchSweepPs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := coldMemoInput(b, m, core.Options{})
		if _, err := in.SweepQualityContext(context.Background(), ps); err != nil {
			b.Fatal(err)
		}
		requireNoMemoHits(b, in)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/p")
}

func BenchmarkSweepSingle_K16(b *testing.B) {
	m := scalingModel(b, 96, 40)
	in := benchInput(b, m, core.Options{})
	ps := benchSweepPs(16)
	ctx := context.Background()
	runSolve(b, in, ps[0]) // steady-state warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			if _, err := in.NewSolver().QualityContext(ctx, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/p")
}

// BenchmarkSweepCancel measures the serving layer's cancellation latency:
// how long after cancel() a mid-flight p-sweep takes to return — the time
// a timed-out request keeps burning CPU past its deadline. The engine
// promises one node-level check interval; the reported cancel-ns/op is
// that interval measured (ns/op itself also includes the deliberate
// let-it-start delay, so cancel-ns/op is the headline number).
func BenchmarkSweepCancel(b *testing.B) {
	m := scalingModel(b, 96, 40)
	in := benchInput(b, m, core.Options{})
	ps := make([]float64, 64)
	for i := range ps {
		ps[i] = float64(i) / float64(len(ps)-1)
	}
	var cancelLatency time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := in.SweepRunContext(ctx, ps)
			done <- err
		}()
		time.Sleep(200 * time.Microsecond) // let solvers get in flight
		start := time.Now()
		cancel()
		err := <-done
		cancelLatency += time.Since(start)
		if err != nil && !errors.Is(err, context.Canceled) {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cancelLatency.Nanoseconds())/float64(b.N), "cancel-ns/op")
}

// ---------------------------------------------------------------------------
// Interactive windowing: the cost of moving the analysis window, which the
// incremental path (microscopic.Reslicer + core.Input.Update) turns from a
// full input pass into O(changed slices) work. The _Scratch variants
// measure the status quo ante: rebuild the microscopic model and the whole
// Input for every window change. The acceptance bar for the incremental
// engine is ≥ 5× on a 1-slice pan at |T| = 50.

const (
	windowBenchS = 96  // |S|
	windowBenchT = 50  // |T|
	windowBenchW = 200 // trace duration (slices are 4 s wide)
)

var (
	windowOnce sync.Once
	windowTr   *trace.Trace
	windowR    *microscopic.Reslicer
	windowIn   *core.Input
)

func windowCase(b *testing.B) (*trace.Trace, *microscopic.Reslicer, *core.Input) {
	b.Helper()
	windowOnce.Do(func() {
		windowTr = mpisim.ArtificialSized(windowBenchS, windowBenchW)
		r, err := microscopic.NewReslicer(windowTr)
		if err != nil {
			b.Fatal(err)
		}
		m, err := r.Build(microscopic.Options{Slices: windowBenchT})
		if err != nil {
			b.Fatal(err)
		}
		windowR, windowIn = r, benchInput(b, m, core.Options{})
	})
	return windowTr, windowR, windowIn
}

// benchWindowPanIncremental ping-pongs the window by ±k slices through the
// incremental path; each iteration is one complete window change (model +
// matrices).
func benchWindowPanIncremental(b *testing.B, k int) {
	_, _, in := windowCase(b)
	b.ResetTimer()
	var err error
	for i := 0; i < b.N; i++ {
		d := k
		if i%2 == 1 {
			d = -k
		}
		if in, err = in.Pan(context.Background(), d); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWindowPanScratch rebuilds model and Input from scratch for the same
// alternating windows.
func benchWindowPanScratch(b *testing.B, k int) {
	tr, _, in := windowCase(b)
	w := in.Model.Slicer.Width()
	start, end := in.Model.Slicer.Start, in.Model.Slicer.End
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, e := start, end
		if i%2 == 0 {
			s, e = start+float64(k)*w, end+float64(k)*w
		}
		m, err := microscopic.Build(tr, microscopic.Options{Slices: windowBenchT, Start: s, End: e})
		if err != nil {
			b.Fatal(err)
		}
		benchInput(b, m, core.Options{})
	}
}

func BenchmarkWindowPan_Incremental(b *testing.B)  { benchWindowPanIncremental(b, 1) }
func BenchmarkWindowPan_Scratch(b *testing.B)      { benchWindowPanScratch(b, 1) }
func BenchmarkWindowPan8_Incremental(b *testing.B) { benchWindowPanIncremental(b, 8) }
func BenchmarkWindowPan8_Scratch(b *testing.B)     { benchWindowPanScratch(b, 8) }

// Zooming changes the slice width, so nothing of the matrices transfers
// across the resolution change itself — the serving layer's ladder
// (server.InputCache) instead pins one window per visited grid level, so
// revisiting a resolution is a same-grid pan (Input.UpdateContext) rather
// than a rebuild. The benchmark ping-pongs between the overview level and
// a zoomed level through InputCache.Get, the path ocelotld serves zooms
// from, with the target always a slice or two off the level's resident
// window, so every iteration is a genuine zoom request served by
// pan-derivation, never a pure map hit. The byte budget holds about 2.5
// Inputs, so each insert evicts everything but the two ladder residents.
// The zoomed level's slice width (0.8 s) is not a power-of-two fraction,
// so the benchmark also holds the ladder to keying pans of one grid as
// one level.
func BenchmarkWindowZoom_Incremental(b *testing.B) {
	tr, _, in := windowCase(b)
	ctx := context.Background()
	st, err := server.NewRegistry().LoadTrace("zoom", tr)
	if err != nil {
		b.Fatal(err)
	}
	over := in.Model.Slicer
	zs, ze := over.IntervalBounds(10, 19)
	zoom, err := timeslice.New(zs, ze, windowBenchT)
	if err != nil {
		b.Fatal(err)
	}
	budget := 5 * core.EstimateMemoryBytes(in.Model.H.NumNodes(), in.Model.NumResources(), in.X, windowBenchT) / 2
	c := server.NewInputCache(budget, core.Options{}, 0)
	for _, sl := range []timeslice.Slicer{over, zoom} {
		if _, _, err := c.Get(ctx, st, sl); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl := zoom
		if i%2 == 1 {
			sl = over
		}
		_, kind, err := c.Get(ctx, st, sl.Shift(1+i%3))
		if err != nil {
			b.Fatal(err)
		}
		if kind != server.BuildDerived {
			b.Fatalf("iteration %d built %v, want derived (warm level)", i, kind)
		}
	}
}

func BenchmarkWindowZoom_Scratch(b *testing.B) {
	tr, _, in := windowCase(b)
	start, end := in.Model.Slicer.IntervalBounds(10, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := microscopic.Build(tr, microscopic.Options{Slices: windowBenchT, Start: start, End: end})
		if err != nil {
			b.Fatal(err)
		}
		benchInput(b, m, core.Options{})
	}
}

// BenchmarkWindowZoomOut_Incremental measures the coarsen derivation: the
// overview one level up (2× slice width) computed from the fine Input by
// slice-pair merging — no event-index pass, and a matrix fill a quarter
// the size of the fine one. This is the path behind the serving layer's
// progressive previews.
func BenchmarkWindowZoomOut_Incremental(b *testing.B) {
	_, _, in := windowCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.CoarsenContext(context.Background(), 2); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Trace I/O throughput (the substrate behind Table II's reading column).

func benchIOWrite(b *testing.B, format traceio.Format) {
	d := loadCase(b, grid5000.CaseA)
	hdr := traceio.Header{Resources: d.res.Trace.Resources, States: d.res.Trace.States,
		Start: d.res.Trace.Start, End: d.res.Trace.End}
	b.SetBytes(int64(d.res.Trace.NumEvents()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := traceio.NewWriter(discard{}, format, hdr)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range d.res.Trace.Events {
			if err := w.WriteEvent(e); err != nil {
				b.Fatal(err)
			}
		}
		w.Close()
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkTraceIO_WriteBinary(b *testing.B) { benchIOWrite(b, traceio.FormatBinary) }
func BenchmarkTraceIO_WriteCSV(b *testing.B)    { benchIOWrite(b, traceio.FormatCSV) }

func BenchmarkTraceIO_GenerateCaseA(b *testing.B) {
	sc, _ := grid5000.Scenarios(grid5000.CaseA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if _, err := mpisim.GenerateStream(sc, mpisim.Config{Seed: 42, Scale: benchScale},
			func(trace.Event) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "events")
	}
}

// --- Live ingestion (follow mode) -----------------------------------------

// followBenchBatch synthesizes one tick's worth of time-ordered events in
// [lo, lo+w): the flushed batch a live writer hands the follower.
func followBenchBatch(tick, n, nRes, nStates int, lo, w float64) []trace.Event {
	evs := make([]trace.Event, n)
	step := w / float64(n)
	for i := range evs {
		s := lo + float64(i)*step
		evs[i] = trace.Event{
			Resource: trace.ResourceID((tick*7 + i) % nRes),
			State:    trace.StateID((tick + i) % nStates),
			Start:    s,
			End:      s + 2*step,
		}
	}
	return evs
}

// followBenchSetup builds the steady-state follow scenario: a reslicer
// over one live window's worth of history and the window's Input.
func followBenchSetup(b *testing.B) (*microscopic.Reslicer, *core.Input, *trace.Trace) {
	b.Helper()
	const (
		slices  = 30
		width   = 1.0
		perTick = 2000
	)
	res := make([]string, 16)
	for i := range res {
		res[i] = fmt.Sprintf("h/r%d", i)
	}
	tr := trace.New(res, []string{"run", "wait", "io"})
	tr.Start, tr.End = 0, slices*width
	for tick := 0; tick < slices; tick++ {
		for _, e := range followBenchBatch(tick, perTick, len(res), 3, float64(tick)*width, width) {
			tr.Add(e.Resource, e.State, e.Start, e.End)
		}
	}
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		b.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: slices})
	if err != nil {
		b.Fatal(err)
	}
	return r, benchInput(b, m, core.Options{}), tr
}

// BenchmarkFollowTick is one steady-state live-ingestion tick at the
// engine level: Extend the event index by one slice worth of freshly
// flushed events, then advance the live window's Input one slice — the
// incremental path ocelotld's follower takes every poll. Gated by
// scripts/benchdiff.sh: this latency bounds how fast a trace can be
// ingested while staying interactive.
func BenchmarkFollowTick(b *testing.B) { benchFollowTick(b, 0) }

// BenchmarkFollowTick_Long is BenchmarkFollowTick after 2,000 more ticks
// of history (4M events), ingested off the clock. Its figure does not
// grow with -benchtime, and it matches BenchmarkFollowTick's while a tick
// costs O(batch); a tick that copied each touched leaf's history would
// cost over 30× more here. Gated by scripts/benchdiff.sh.
func BenchmarkFollowTick_Long(b *testing.B) { benchFollowTick(b, 2000) }

// benchFollowTick times follow ticks after history untimed ticks that
// extend the index only; the live window's Input is then built at the
// new end, so the timed ticks start from the same state either way.
func benchFollowTick(b *testing.B, history int) {
	resl, in, tr := followBenchSetup(b)
	ctx := context.Background()
	w := in.Model.Slicer.Width()
	end := tr.End
	var err error
	extend := func(tick int) {
		batch := followBenchBatch(tick, 2000, len(tr.Resources), len(tr.States), end, w)
		end += w
		if resl, err = resl.Extend(batch, batch[len(batch)-1].Start); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < history; i++ {
		extend(30 + i)
	}
	if history > 0 {
		m, err := resl.BuildAt(in.Model.Slicer.Shift(history))
		if err != nil {
			b.Fatal(err)
		}
		in = benchInput(b, m, core.Options{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		extend(30 + history + i)
		if in, err = in.AdvanceContext(ctx, resl, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFollowTick_Rebuild serves the same advancing window the naive
// way — a scratch model build + Input per tick — the comparator for the
// O(Δ slices) claim.
func BenchmarkFollowTick_Rebuild(b *testing.B) {
	resl, in, tr := followBenchSetup(b)
	w := in.Model.Slicer.Width()
	sl := in.Model.Slicer
	end := tr.End
	b.ResetTimer()
	var err error
	for i := 0; i < b.N; i++ {
		batch := followBenchBatch(30+i, 2000, len(tr.Resources), len(tr.States), end, w)
		end += w
		if resl, err = resl.Extend(batch, batch[len(batch)-1].Start); err != nil {
			b.Fatal(err)
		}
		sl = sl.Shift(1)
		m, err := resl.BuildAt(sl)
		if err != nil {
			b.Fatal(err)
		}
		benchInput(b, m, core.Options{})
	}
}
