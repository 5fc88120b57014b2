package microscopic

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ocelotl/internal/hierarchy"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
)

func sampleTrace() *trace.Trace {
	tr := trace.New([]string{"A/a0", "A/a1", "B/b0"}, []string{"run", "wait"})
	tr.Start, tr.End = 0, 10
	tr.Add(0, 0, 0, 5)    // a0 runs 5s
	tr.Add(0, 1, 5, 10)   // a0 waits 5s
	tr.Add(1, 0, 0, 10)   // a1 runs the whole window
	tr.Add(2, 1, 2.5, 10) // b0 waits 7.5s
	return tr
}

func TestBuildBasic(t *testing.T) {
	m, err := Build(sampleTrace(), Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumResources() != 3 || m.NumStates() != 2 || m.NumSlices() != 10 {
		t.Fatalf("dims (%d,%d,%d)", m.NumResources(), m.NumStates(), m.NumSlices())
	}
	// a0 runs fully during slice 0, waits fully during slice 7.
	if got := m.Rho(0, 0, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("rho(run,a0,0) = %g, want 1", got)
	}
	if got := m.Rho(1, 0, 7); math.Abs(got-1) > 1e-12 {
		t.Errorf("rho(wait,a0,7) = %g, want 1", got)
	}
	// b0's wait starts mid-slice 2: half the slice.
	if got := m.Rho(1, 2, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("rho(wait,b0,2) = %g, want 0.5", got)
	}
	if err := m.Validate(1e-9); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuildDefaultSlices(t *testing.T) {
	m, err := Build(sampleTrace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSlices() != DefaultSlices {
		t.Errorf("default |T| = %d, want %d", m.NumSlices(), DefaultSlices)
	}
}

func TestBuildConservesTime(t *testing.T) {
	tr := sampleTrace()
	m, err := Build(tr, Options{Slices: 7}) // slices that don't divide evenly
	if err != nil {
		t.Fatal(err)
	}
	want := tr.ComputeStats().BusyTime
	if got := m.TotalTime(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalTime = %g, want %g", got, want)
	}
}

func TestBuildWindowOverride(t *testing.T) {
	tr := sampleTrace()
	m, err := Build(tr, Options{Slices: 5, Start: 0, End: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Only the first 5 seconds are described: a0 run 5s + a1 run 5s +
	// b0 wait 2.5s.
	if got := m.TotalTime(); math.Abs(got-12.5) > 1e-9 {
		t.Errorf("TotalTime = %g, want 12.5", got)
	}
}

// TestBuildRejectsBadStates also covers out-of-range resources and
// negative IDs: Build shares BuildStream's range checks.
func TestBuildRejectsBadStates(t *testing.T) {
	for _, bad := range []trace.Event{
		{Resource: 0, State: 99, Start: 0, End: 1},
		{Resource: 0, State: -1, Start: 0, End: 1},
		{Resource: 99, State: 0, Start: 0, End: 1},
		{Resource: -1, State: 0, Start: 0, End: 1},
	} {
		tr := sampleTrace()
		tr.Events = append(tr.Events, bad)
		if _, err := Build(tr, Options{Slices: 5}); err == nil {
			t.Errorf("event %+v accepted", bad)
		}
	}
}

func TestSliceProfile(t *testing.T) {
	m, err := Build(sampleTrace(), Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Slice 0: a0 run (1), a1 run (1), b0 idle → run mean = 2/3.
	prof := m.SliceProfile(0)
	if math.Abs(prof[0]-2.0/3) > 1e-12 {
		t.Errorf("run profile at slice 0 = %g, want 2/3", prof[0])
	}
	if math.Abs(prof[1]) > 1e-12 {
		t.Errorf("wait profile at slice 0 = %g, want 0", prof[1])
	}
}

func TestResourceProfile(t *testing.T) {
	m, err := Build(sampleTrace(), Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	// a0: 5s run, 5s wait over 10s.
	prof := m.ResourceProfile(0)
	if math.Abs(prof[0]-0.5) > 1e-12 || math.Abs(prof[1]-0.5) > 1e-12 {
		t.Errorf("a0 profile = %v, want [0.5 0.5]", prof)
	}
	// b0: 0 run, 7.5s wait.
	prof = m.ResourceProfile(2)
	if math.Abs(prof[0]) > 1e-12 || math.Abs(prof[1]-0.75) > 1e-12 {
		t.Errorf("b0 profile = %v, want [0 0.75]", prof)
	}
}

func TestValidateCatchesOverfull(t *testing.T) {
	h, _ := hierarchy.FromPaths([]string{"r"})
	sl, _ := timeslice.New(0, 1, 1)
	m := NewEmpty(h, sl, []string{"x", "y"})
	m.AddD(0, 0, 0, 0.7)
	m.AddD(1, 0, 0, 0.7)
	if err := m.Validate(1e-9); err == nil {
		t.Error("overfull microscopic area accepted")
	}
}

func TestValidateCatchesNegative(t *testing.T) {
	h, _ := hierarchy.FromPaths([]string{"r"})
	sl, _ := timeslice.New(0, 1, 1)
	m := NewEmpty(h, sl, []string{"x"})
	m.AddD(0, 0, 0, -0.5)
	if err := m.Validate(1e-9); err == nil {
		t.Error("negative duration accepted")
	}
}

// streamSource adapts an in-memory trace to the EventSource interface.
type streamSource struct {
	tr *trace.Trace
	i  int
}

func (s *streamSource) Resources() []string        { return s.tr.Resources }
func (s *streamSource) States() []string           { return s.tr.States }
func (s *streamSource) Window() (float64, float64) { return s.tr.Window() }
func (s *streamSource) Next(ev *trace.Event) error {
	if s.i >= len(s.tr.Events) {
		return io.EOF
	}
	*ev = s.tr.Events[s.i]
	s.i++
	return nil
}

func TestBuildStreamMatchesBuild(t *testing.T) {
	tr := sampleTrace()
	m1, err := Build(tr, Options{Slices: 8})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildStream(&streamSource{tr: tr}, Options{Slices: 8})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < m1.NumStates(); x++ {
		for s := 0; s < m1.NumResources(); s++ {
			for ti := 0; ti < 8; ti++ {
				if a, b := m1.D(x, s, ti), m2.D(x, s, ti); math.Abs(a-b) > 1e-12 {
					t.Fatalf("D(%d,%d,%d): in-memory %g vs stream %g", x, s, ti, a, b)
				}
			}
		}
	}
}

func TestBuildStreamRejectsBadEvents(t *testing.T) {
	tr := sampleTrace()
	tr.Events = append(tr.Events, trace.Event{Resource: 42, State: 0, Start: 0, End: 1})
	if _, err := BuildStream(&streamSource{tr: tr}, Options{Slices: 4}); err == nil {
		t.Error("stream with unknown resource accepted")
	}
}

// TestConservationProperty: total described time equals total clipped event
// time for random traces.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := trace.New([]string{"A/a", "A/b", "B/c"}, []string{"x", "y", "z"})
		tr.Start, tr.End = 0, 20
		for i := 0; i < 50; i++ {
			start := rng.Float64() * 19
			end := start + rng.Float64()
			tr.Add(trace.ResourceID(rng.Intn(3)), trace.StateID(rng.Intn(3)), start, end)
		}
		m, err := Build(tr, Options{Slices: 1 + rng.Intn(29)})
		if err != nil {
			return false
		}
		want := tr.ComputeStats().BusyTime
		return math.Abs(m.TotalTime()-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
