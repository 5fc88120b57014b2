// Package trace defines the raw execution-trace model used throughout the
// library: timestamped state events produced by hierarchical resources.
//
// A trace, in the sense of the paper (§III.A), is a set of *states*: a state
// is a timestamped event with a start and an end, associated with the
// resource that produced it (a process bound to a core) and with a value
// drawn from the state alphabet X (e.g. MPI_Send, MPI_Wait, compute).
package trace

import (
	"fmt"
	"math"
	"sort"
)

// ResourceID identifies a resource (a leaf of the platform hierarchy) by its
// index in the trace resource table.
type ResourceID int32

// StateID identifies a state value by its index in the trace state table.
type StateID int32

// Event is one state occurrence: resource Resource was in state State during
// [Start, End). Times are seconds from an arbitrary origin.
type Event struct {
	Resource ResourceID
	State    StateID
	Start    float64
	End      float64
}

// Duration returns the time extent of the event.
func (e Event) Duration() float64 { return e.End - e.Start }

// Valid reports whether the event is well-formed: non-negative IDs and a
// non-inverted interval of finite times. End ≥ Start already fails for a
// NaN time, and with it a finite Start and End need only the two outer
// bounds — three compares, so the check inlines into every event loader.
func (e Event) Valid() bool {
	return e.Resource >= 0 && e.State >= 0 && e.End >= e.Start &&
		e.Start >= -math.MaxFloat64 && e.End <= math.MaxFloat64
}

// Trace is an in-memory execution trace. Resources are named by
// slash-separated hierarchical paths (e.g. "rennes/parapide/parapide-1/p3")
// so that the platform hierarchy can be rebuilt from the resource table
// alone. For very large traces, prefer the streaming interfaces in
// package traceio; Trace is the convenient container for generation,
// testing and small analyses.
type Trace struct {
	// Resources maps ResourceID to hierarchical path.
	Resources []string
	// States maps StateID to state name.
	States []string
	// Events holds the state occurrences, in no particular order unless
	// Sort has been called.
	Events []Event
	// Start and End delimit the observation window. Zero values mean
	// "derive from events" (see Window).
	Start, End float64
}

// New returns an empty trace with the given resource and state tables.
func New(resources, states []string) *Trace {
	return &Trace{Resources: resources, States: states}
}

// NumResources returns the size of the spatial dimension |S|.
func (tr *Trace) NumResources() int { return len(tr.Resources) }

// NumStates returns the size of the state dimension |X|.
func (tr *Trace) NumStates() int { return len(tr.States) }

// NumEvents returns the number of recorded state occurrences.
func (tr *Trace) NumEvents() int { return len(tr.Events) }

// Add appends an event.
func (tr *Trace) Add(r ResourceID, x StateID, start, end float64) {
	tr.Events = append(tr.Events, Event{Resource: r, State: x, Start: start, End: end})
}

// AddEvent appends a prebuilt event.
func (tr *Trace) AddEvent(e Event) { tr.Events = append(tr.Events, e) }

// Window returns the observation window. If Start==End==0 it is derived
// from the events (min start, max end); an empty trace yields (0, 0).
func (tr *Trace) Window() (start, end float64) {
	if tr.Start != 0 || tr.End != 0 {
		return tr.Start, tr.End
	}
	if len(tr.Events) == 0 {
		return 0, 0
	}
	start, end = math.Inf(1), math.Inf(-1)
	for _, e := range tr.Events {
		if e.Start < start {
			start = e.Start
		}
		if e.End > end {
			end = e.End
		}
	}
	return start, end
}

// Sort orders events by (Start, Resource, End). Readers and generators are
// not required to produce sorted traces; sorting makes textual output and
// some analyses deterministic.
func (tr *Trace) Sort() {
	sort.Slice(tr.Events, func(a, b int) bool {
		ea, eb := tr.Events[a], tr.Events[b]
		if ea.Start != eb.Start {
			return ea.Start < eb.Start
		}
		if ea.Resource != eb.Resource {
			return ea.Resource < eb.Resource
		}
		return ea.End < eb.End
	})
}

// Validate checks the structural integrity of the trace: every event
// references existing resources and states and has a well-formed interval
// inside the observation window (when one is set explicitly).
func (tr *Trace) Validate() error {
	ws, we := tr.Window()
	explicit := tr.Start != 0 || tr.End != 0
	for i, e := range tr.Events {
		if !e.Valid() {
			return fmt.Errorf("trace: event %d is malformed: %+v", i, e)
		}
		if int(e.Resource) >= len(tr.Resources) {
			return fmt.Errorf("trace: event %d references unknown resource %d (have %d)", i, e.Resource, len(tr.Resources))
		}
		if int(e.State) >= len(tr.States) {
			return fmt.Errorf("trace: event %d references unknown state %d (have %d)", i, e.State, len(tr.States))
		}
		if explicit && (e.Start < ws || e.End > we) {
			return fmt.Errorf("trace: event %d [%g,%g) outside window [%g,%g)", i, e.Start, e.End, ws, we)
		}
	}
	return nil
}

// StateIndex returns the StateID for name, creating it if absent.
func (tr *Trace) StateIndex(name string) StateID {
	for i, s := range tr.States {
		if s == name {
			return StateID(i)
		}
	}
	tr.States = append(tr.States, name)
	return StateID(len(tr.States) - 1)
}

// ResourceIndex returns the ResourceID for path, creating it if absent.
func (tr *Trace) ResourceIndex(path string) ResourceID {
	for i, s := range tr.Resources {
		if s == path {
			return ResourceID(i)
		}
	}
	tr.Resources = append(tr.Resources, path)
	return ResourceID(len(tr.Resources) - 1)
}

// Stats summarises a trace: per-state event counts and total busy time.
type Stats struct {
	Events        int
	Window        float64
	PerState      []StateStat
	BusyTime      float64 // sum of event durations across all resources
	MeanEventSpan float64
}

// StateStat aggregates one state's occurrences.
type StateStat struct {
	Name     string
	Count    int
	Duration float64
}

// ComputeStats scans the trace once and returns summary statistics.
func (tr *Trace) ComputeStats() Stats {
	st := Stats{Events: len(tr.Events), PerState: make([]StateStat, len(tr.States))}
	for i, name := range tr.States {
		st.PerState[i].Name = name
	}
	ws, we := tr.Window()
	st.Window = we - ws
	for _, e := range tr.Events {
		d := e.Duration()
		st.BusyTime += d
		if int(e.State) < len(st.PerState) {
			st.PerState[e.State].Count++
			st.PerState[e.State].Duration += d
		}
	}
	if st.Events > 0 {
		st.MeanEventSpan = st.BusyTime / float64(st.Events)
	}
	return st
}

// Clone returns a deep copy of the trace.
func (tr *Trace) Clone() *Trace {
	cp := &Trace{
		Resources: append([]string(nil), tr.Resources...),
		States:    append([]string(nil), tr.States...),
		Events:    append([]Event(nil), tr.Events...),
		Start:     tr.Start,
		End:       tr.End,
	}
	return cp
}

// Slice returns a new trace containing only events overlapping [from, to),
// with events clipped to that window. Resource and state tables are shared
// structure (copied slices of the same strings).
func (tr *Trace) Slice(from, to float64) *Trace {
	out := &Trace{
		Resources: append([]string(nil), tr.Resources...),
		States:    append([]string(nil), tr.States...),
		Start:     from,
		End:       to,
	}
	for _, e := range tr.Events {
		if e.End <= from || e.Start >= to {
			continue
		}
		if e.Start < from {
			e.Start = from
		}
		if e.End > to {
			e.End = to
		}
		out.Events = append(out.Events, e)
	}
	return out
}
