package trace

import (
	"math"
	"testing"
)

func sample() *Trace {
	tr := New([]string{"A/a0", "A/a1"}, []string{"run", "wait"})
	tr.Add(0, 0, 0, 2)
	tr.Add(0, 1, 2, 3)
	tr.Add(1, 0, 0.5, 2.5)
	return tr
}

func TestBasicAccessors(t *testing.T) {
	tr := sample()
	if tr.NumResources() != 2 || tr.NumStates() != 2 || tr.NumEvents() != 3 {
		t.Errorf("dims = (%d,%d,%d)", tr.NumResources(), tr.NumStates(), tr.NumEvents())
	}
}

func TestWindowDerived(t *testing.T) {
	tr := sample()
	s, e := tr.Window()
	if s != 0 || e != 3 {
		t.Errorf("Window = (%g,%g), want (0,3)", s, e)
	}
}

func TestWindowExplicit(t *testing.T) {
	tr := sample()
	tr.Start, tr.End = -1, 10
	s, e := tr.Window()
	if s != -1 || e != 10 {
		t.Errorf("Window = (%g,%g), want (-1,10)", s, e)
	}
}

func TestWindowEmpty(t *testing.T) {
	tr := New(nil, nil)
	s, e := tr.Window()
	if s != 0 || e != 0 {
		t.Errorf("empty Window = (%g,%g)", s, e)
	}
}

func TestEventValid(t *testing.T) {
	good := Event{Resource: 0, State: 0, Start: 1, End: 2}
	if !good.Valid() {
		t.Error("good event rejected")
	}
	bad := []Event{
		{Resource: -1, State: 0, Start: 0, End: 1},
		{Resource: 0, State: -1, Start: 0, End: 1},
		{Resource: 0, State: 0, Start: 2, End: 1},
		{Resource: 0, State: 0, Start: math.NaN(), End: 1},
		{Resource: 0, State: 0, Start: 0, End: math.Inf(1)},
	}
	for i, e := range bad {
		if e.Valid() {
			t.Errorf("bad event %d accepted: %+v", i, e)
		}
	}
	// Every pair of edge times agrees with the rule spelled out: no NaN,
	// no infinity, End ≥ Start.
	times := []float64{math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, math.Copysign(0, -1),
		0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	for _, a := range times {
		for _, b := range times {
			e := Event{Start: a, End: b}
			want := !math.IsNaN(a) && !math.IsNaN(b) && !math.IsInf(a, 0) && !math.IsInf(b, 0) && b >= a
			if e.Valid() != want {
				t.Errorf("Event{Start: %v, End: %v}.Valid() = %v, want %v", a, b, e.Valid(), want)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	tr := sample()
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	tr.Add(5, 0, 0, 1) // unknown resource
	if err := tr.Validate(); err == nil {
		t.Error("unknown resource accepted")
	}
	tr = sample()
	tr.Add(0, 9, 0, 1) // unknown state
	if err := tr.Validate(); err == nil {
		t.Error("unknown state accepted")
	}
	tr = sample()
	tr.Start, tr.End = 0, 1 // events outside explicit window
	if err := tr.Validate(); err == nil {
		t.Error("out-of-window event accepted")
	}
}

func TestSort(t *testing.T) {
	tr := New([]string{"r"}, []string{"x"})
	tr.Add(0, 0, 5, 6)
	tr.Add(0, 0, 1, 2)
	tr.Add(0, 0, 3, 4)
	tr.Sort()
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Start < tr.Events[i-1].Start {
			t.Fatalf("not sorted: %v", tr.Events)
		}
	}
}

func TestStateAndResourceIndex(t *testing.T) {
	tr := New(nil, nil)
	a := tr.StateIndex("wait")
	b := tr.StateIndex("run")
	if a2 := tr.StateIndex("wait"); a2 != a {
		t.Errorf("StateIndex not idempotent: %d vs %d", a, a2)
	}
	if a == b {
		t.Error("distinct states share an index")
	}
	r := tr.ResourceIndex("c/m/p")
	if r2 := tr.ResourceIndex("c/m/p"); r2 != r {
		t.Error("ResourceIndex not idempotent")
	}
	if tr.NumStates() != 2 || tr.NumResources() != 1 {
		t.Errorf("tables: %d states, %d resources", tr.NumStates(), tr.NumResources())
	}
}

func TestComputeStats(t *testing.T) {
	tr := sample()
	st := tr.ComputeStats()
	if st.Events != 3 {
		t.Errorf("Events = %d", st.Events)
	}
	if math.Abs(st.BusyTime-5) > 1e-12 { // 2 + 1 + 2
		t.Errorf("BusyTime = %g, want 5", st.BusyTime)
	}
	if st.PerState[0].Count != 2 || math.Abs(st.PerState[0].Duration-4) > 1e-12 {
		t.Errorf("state run: %+v", st.PerState[0])
	}
	if st.PerState[1].Count != 1 || math.Abs(st.PerState[1].Duration-1) > 1e-12 {
		t.Errorf("state wait: %+v", st.PerState[1])
	}
	if math.Abs(st.MeanEventSpan-5.0/3) > 1e-12 {
		t.Errorf("MeanEventSpan = %g", st.MeanEventSpan)
	}
}

func TestClone(t *testing.T) {
	tr := sample()
	cp := tr.Clone()
	cp.Add(0, 0, 9, 10)
	cp.Resources[0] = "changed"
	if tr.NumEvents() != 3 || tr.Resources[0] != "A/a0" {
		t.Error("Clone shares storage with original")
	}
}

func TestSlice(t *testing.T) {
	tr := sample()
	sub := tr.Slice(1, 2.5)
	if sub.Start != 1 || sub.End != 2.5 {
		t.Errorf("window = (%g,%g)", sub.Start, sub.End)
	}
	// Events: [0,2)→[1,2), [2,3)→[2,2.5), [0.5,2.5)→[1,2.5)
	if len(sub.Events) != 3 {
		t.Fatalf("got %d events: %v", len(sub.Events), sub.Events)
	}
	for _, e := range sub.Events {
		if e.Start < 1 || e.End > 2.5 {
			t.Errorf("event not clipped: %+v", e)
		}
	}
	empty := tr.Slice(100, 200)
	if len(empty.Events) != 0 {
		t.Errorf("out-of-range slice has %d events", len(empty.Events))
	}
}
