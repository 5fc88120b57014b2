package mpisim

import (
	"context"
	"math"
	"testing"

	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/trace"
)

func genCase(t *testing.T, c grid5000.Case, cfg Config) *Result {
	t.Helper()
	res, err := GenerateCase(c, cfg)
	if err != nil {
		t.Fatalf("GenerateCase(%s): %v", c, err)
	}
	return res
}

func TestCaseAGenerates(t *testing.T) {
	res := genCase(t, grid5000.CaseA, Config{Seed: 1, Scale: 0.02})
	tr := res.Trace
	if tr.NumResources() != 64 {
		t.Errorf("resources = %d, want 64", tr.NumResources())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
	// Event budget within a reasonable factor of the target.
	scale := 0.02
	target := int(scale * 3838144)
	if n := tr.NumEvents(); n < target/2 || n > target*2 {
		t.Errorf("events = %d, want ≈%d", n, target)
	}
	// The window matches the paper's runtime.
	s, e := tr.Window()
	if s != 0 || math.Abs(e-9.5) > 1e-9 {
		t.Errorf("window = (%g,%g), want (0,9.5)", s, e)
	}
}

func TestDeterminism(t *testing.T) {
	a := genCase(t, grid5000.CaseA, Config{Seed: 7, Scale: 0.005})
	b := genCase(t, grid5000.CaseA, Config{Seed: 7, Scale: 0.005})
	if a.Trace.NumEvents() != b.Trace.NumEvents() {
		t.Fatalf("event counts differ: %d vs %d", a.Trace.NumEvents(), b.Trace.NumEvents())
	}
	for i := range a.Trace.Events {
		if a.Trace.Events[i] != b.Trace.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Trace.Events[i], b.Trace.Events[i])
		}
	}
	c := genCase(t, grid5000.CaseA, Config{Seed: 8, Scale: 0.005})
	same := a.Trace.NumEvents() == c.Trace.NumEvents()
	if same {
		for i := range a.Trace.Events {
			if a.Trace.Events[i] != c.Trace.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestEventsTileEachRank(t *testing.T) {
	res := genCase(t, grid5000.CaseA, Config{Seed: 3, Scale: 0.005})
	tr := res.Trace
	// Per-rank events must be contiguous in time (no gaps or overlaps
	// beyond float noise) and inside the window.
	last := make([]float64, tr.NumResources())
	for _, e := range tr.Events {
		r := int(e.Resource)
		if e.Start < last[r]-1e-9 {
			t.Fatalf("rank %d: event starts at %g before previous end %g", r, e.Start, last[r])
		}
		last[r] = e.End
	}
	_, we := tr.Window()
	for r, end := range last {
		if math.Abs(end-we) > 0.05*we {
			t.Errorf("rank %d: timeline ends at %g, window ends at %g", r, end, we)
		}
	}
}

func TestCGPerturbationGroundTruth(t *testing.T) {
	res := genCase(t, grid5000.CaseA, Config{Seed: 5, Scale: 0.01})
	if len(res.Perturbations) != 1 {
		t.Fatalf("got %d perturbations, want 1", len(res.Perturbations))
	}
	p := res.Perturbations[0]
	if p.Kind != "network-contention" {
		t.Errorf("kind = %q", p.Kind)
	}
	// Paper: around 3 s of a 9.5 s run.
	if p.Start < 2.5 || p.Start > 3.6 {
		t.Errorf("perturbation at %g s, want ≈3 s", p.Start)
	}
	// Paper: 26 of 64 processes.
	if len(p.Ranks) < 20 || len(p.Ranks) > 32 {
		t.Errorf("%d ranks perturbed, want ≈26", len(p.Ranks))
	}
}

func TestCGPerturbationVisibleInModel(t *testing.T) {
	res := genCase(t, grid5000.CaseA, Config{Seed: 5, Scale: 0.02})
	m, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Perturbations[0]
	pertSlice := m.Slicer.SliceOf((p.Start + p.End) / 2)
	affected := p.Ranks[0]
	var unaffected int
	seen := map[int]bool{}
	for _, r := range p.Ranks {
		seen[r] = true
	}
	for r := 0; r < 64; r++ {
		if !seen[r] && r%8 != 0 { // skip the wait-dedicated processes
			unaffected = r
			break
		}
	}
	// During the perturbation the affected rank spends clearly more time
	// in Send+Wait than an unaffected sender.
	leafA := m.H.LeafIndex(res.Trace.Resources[affected])
	leafU := m.H.LeafIndex(res.Trace.Resources[unaffected])
	pa := m.Rho(StateSend, leafA, pertSlice) + m.Rho(StateWait, leafA, pertSlice)
	pu := m.Rho(StateSend, leafU, pertSlice) + m.Rho(StateWait, leafU, pertSlice)
	if pa < pu+0.1 {
		t.Errorf("perturbed rank comm share %.3f not clearly above unaffected %.3f", pa, pu)
	}
}

func TestCGInitPhaseHomogeneous(t *testing.T) {
	res := genCase(t, grid5000.CaseA, Config{Seed: 2, Scale: 0.01})
	m, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
	if err != nil {
		t.Fatal(err)
	}
	// First slice: everyone in MPI_Init.
	for s := 0; s < m.NumResources(); s++ {
		if got := m.Rho(StateInit, s, 0); math.Abs(got-1) > 1e-9 {
			t.Fatalf("resource %d: init share %g in slice 0", s, got)
		}
	}
}

func TestDisablePerturbations(t *testing.T) {
	res := genCase(t, grid5000.CaseA, Config{Seed: 5, Scale: 0.005, DisablePerturbations: true})
	if len(res.Perturbations) != 0 {
		t.Errorf("perturbations injected despite DisablePerturbations: %v", res.Perturbations)
	}
}

func TestCaseCGenerates(t *testing.T) {
	res := genCase(t, grid5000.CaseC, Config{Seed: 1, EventTarget: 150000})
	tr := res.Trace
	if tr.NumResources() != 700 {
		t.Errorf("resources = %d, want 700", tr.NumResources())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Ground truth: a slow-interconnect condition on graphite's 64 ranks
	// and the switch-sharing rupture on 4 griffon machines.
	var slow, rupture *Perturbation
	for i := range res.Perturbations {
		switch res.Perturbations[i].Kind {
		case "slow-interconnect":
			slow = &res.Perturbations[i]
		case "switch-sharing":
			rupture = &res.Perturbations[i]
		}
	}
	if slow == nil || len(slow.Ranks) != 64 {
		t.Errorf("slow-interconnect ground truth wrong: %+v", slow)
	}
	if rupture == nil {
		t.Fatal("no switch-sharing rupture")
	}
	// 34.5 s of 70 s.
	if rupture.Start < 30 || rupture.Start > 38 {
		t.Errorf("rupture at %g s, want ≈34.5 s", rupture.Start)
	}
	// Two machines blocked in wait + two in send; griffon has 8
	// cores/machine → 32 ranks.
	if len(rupture.Ranks) != 32 {
		t.Errorf("%d ranks in rupture, want 32", len(rupture.Ranks))
	}
}

func TestLURuptureVisible(t *testing.T) {
	res := genCase(t, grid5000.CaseC, Config{Seed: 4, EventTarget: 200000})
	m, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
	if err != nil {
		t.Fatal(err)
	}
	var rupture Perturbation
	for _, p := range res.Perturbations {
		if p.Kind == "switch-sharing" {
			rupture = p
		}
	}
	slice := m.Slicer.SliceOf((rupture.Start + rupture.End) / 2)
	r := rupture.Ranks[0] // a wait-blocked rank
	leaf := m.H.LeafIndex(res.Trace.Resources[r])
	if got := m.Rho(StateWait, leaf, slice); got < 0.5 {
		t.Errorf("blocked rank wait share %.3f during rupture, want > 0.5", got)
	}
}

func TestCaseBAndDGenerate(t *testing.T) {
	for _, c := range []grid5000.Case{grid5000.CaseB, grid5000.CaseD} {
		res := genCase(t, c, Config{Seed: 1, EventTarget: 60000})
		if err := res.Trace.Validate(); err != nil {
			t.Errorf("case %s: %v", c, err)
		}
	}
}

func TestGenerateStreamMatchesGenerate(t *testing.T) {
	sc, _ := grid5000.Scenarios(grid5000.CaseA)
	cfg := Config{Seed: 11, Scale: 0.003}
	var streamed []trace.Event
	if _, err := GenerateStream(sc, cfg, func(ev trace.Event) error {
		streamed = append(streamed, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Generate(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != res.Trace.NumEvents() {
		t.Fatalf("stream %d events, in-memory %d", len(streamed), res.Trace.NumEvents())
	}
	for i := range streamed {
		if streamed[i] != res.Trace.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestUnknownApplicationRejected(t *testing.T) {
	sc, _ := grid5000.Scenarios(grid5000.CaseA)
	sc.Application = "FT"
	if _, err := Generate(sc, Config{Seed: 1}); err == nil {
		t.Error("unknown application accepted")
	}
}

// TestAggregationFindsCGPerturbation is the end-to-end §V.A check: the
// spatiotemporal aggregation at a detail-preserving p must place a
// temporal cut near the injected perturbation window.
func TestAggregationFindsCGPerturbation(t *testing.T) {
	res := genCase(t, grid5000.CaseA, Config{Seed: 9, Scale: 0.02})
	m, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInputContext(context.Background(), m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := in.NewSolver().RunContext(context.Background(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Perturbations[0]
	loSlice := m.Slicer.SliceOf(p.Start)
	hiSlice := m.Slicer.SliceOf(p.End)
	// Some area boundary must fall within [loSlice-1, hiSlice+1].
	found := false
	for _, a := range pt.Areas {
		if (a.I >= loSlice-1 && a.I <= hiSlice+1) || (a.J+1 >= loSlice-1 && a.J+1 <= hiSlice+1) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no aggregate boundary near the perturbation (slices %d-%d); areas: %d", loSlice, hiSlice, pt.NumAreas())
	}
}

func TestArtificialTrace(t *testing.T) {
	tr := Artificial()
	if tr.NumResources() != 12 || tr.NumStates() != 2 {
		t.Fatalf("dims: %d resources, %d states", tr.NumResources(), tr.NumStates())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Exactly 2 events per (resource, slice).
	if tr.NumEvents() != 12*20*2 {
		t.Errorf("events = %d, want %d", tr.NumEvents(), 12*20*2)
	}
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Proportions sum to 1 everywhere.
	for s := 0; s < 12; s++ {
		for ti := 0; ti < 20; ti++ {
			sum := m.Rho(0, s, ti) + m.Rho(1, s, ti)
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("(s=%d,t=%d): ρ sums to %g", s, ti, sum)
			}
		}
	}
	// Slice 7 (T(8)) is fully homogeneous at 0.5.
	for s := 0; s < 12; s++ {
		if got := m.Rho(0, s, 7); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("slice 7 not homogeneous: ρ(0,%d,7) = %g", s, got)
		}
	}
}

func TestArtificialAggregationShape(t *testing.T) {
	tr := Artificial()
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 20})
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInputContext(context.Background(), m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A low p keeps detail; a high p aggregates more coarsely
	// (Fig. 3.d vs 3.e: 56 areas then 15).
	lo, err := in.NewSolver().RunContext(context.Background(), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := in.NewSolver().RunContext(context.Background(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo.NumAreas() <= hi.NumAreas() {
		t.Errorf("areas: p=0.3 → %d, p=0.95 → %d; want strictly more detail at low p", lo.NumAreas(), hi.NumAreas())
	}
	if err := lo.Validate(m.H, 20); err != nil {
		t.Fatal(err)
	}
	if err := hi.Validate(m.H, 20); err != nil {
		t.Fatal(err)
	}
}

func TestArtificialSized(t *testing.T) {
	tr := ArtificialSized(30, 40)
	if tr.NumResources() != 30 {
		t.Errorf("resources = %d", tr.NumResources())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degenerate arguments clamp.
	tr = ArtificialSized(1, 1)
	if tr.NumResources() < 3 {
		t.Errorf("clamped resources = %d", tr.NumResources())
	}
}

func TestEmitSegmentEdgeCases(t *testing.T) {
	rng := rankRNG(1, 0)
	n, err := emitSegment(func(trace.Event) error { return nil }, rng, 0, 5, 5, 1, 0, []mixEntry{{0, 1}})
	if err != nil || n != 0 {
		t.Errorf("empty segment emitted %d events", n)
	}
	n, err = emitSegment(func(trace.Event) error { return nil }, rng, 0, 0, 1, 0, 0, []mixEntry{{0, 1}})
	if err != nil || n != 0 {
		t.Errorf("zero cycle duration emitted %d events", n)
	}
	n, err = emitSegment(func(trace.Event) error { return nil }, rng, 0, 0, 1, 1, 0, []mixEntry{{0, 0}})
	if err != nil || n != 0 {
		t.Errorf("zero-share mix emitted %d events", n)
	}
}
