// Package microscopic builds the trace microscopic model of paper §III.A:
// the raw timestamped events are preliminarily aggregated within
// microscopic spatiotemporal areas (s, t) — one resource × one regular time
// slice — producing the tridimensional dataset d_x(s,t) that every
// aggregation algorithm consumes. One kernel, spread, gives an event to
// the slices it overlaps in proportion to the overlap; the streaming
// build (BuildStream) and the event-index fills of Reslicer both call it,
// so the two cannot disagree on the rule.
package microscopic

import (
	"fmt"
	"io"

	"ocelotl/internal/hierarchy"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
)

// Model is the microscopic description of a trace: for each state x,
// resource s (leaf index in the hierarchy) and slice t, the time d_x(s,t)
// spent by s in x during t, plus the slice durations d(t).
type Model struct {
	H      *hierarchy.Hierarchy
	Slicer timeslice.Slicer
	// States maps state index to name (the dimension X).
	States []string
	// SliceDur is d(t) for each slice.
	SliceDur []float64
	// dx[x] is a row-major [resource][slice] matrix of d_x(s,t).
	dx [][]float64
	// resl is the index this model was produced from, when it came from a
	// Reslicer; nil for Build/BuildStream/NewEmpty models.
	resl *Reslicer
}

// Reslicer returns the event index behind this model, or nil if the model
// was built without one. Models with a reslicer support the incremental
// window updates of core.Input.Pan/Zoom.
func (m *Model) Reslicer() *Reslicer { return m.resl }

// NumStates returns |X|.
func (m *Model) NumStates() int { return len(m.States) }

// NumResources returns |S|.
func (m *Model) NumResources() int { return m.H.NumLeaves() }

// NumSlices returns |T|.
func (m *Model) NumSlices() int { return m.Slicer.N }

// D returns d_x(s,t), the time resource s spent in state x during slice t.
func (m *Model) D(x, s, t int) float64 { return m.dx[x][s*m.Slicer.N+t] }

// AddD accumulates seconds into d_x(s,t). Exposed for builders and tests.
func (m *Model) AddD(x, s, t int, seconds float64) { m.dx[x][s*m.Slicer.N+t] += seconds }

// Rho returns ρ_x(s,t) = d_x(s,t)/d(t), the proportion of slice t that
// resource s spent in state x.
func (m *Model) Rho(x, s, t int) float64 {
	d := m.SliceDur[t]
	if d <= 0 {
		return 0
	}
	return m.D(x, s, t) / d
}

// StateRow returns the [resource][slice] matrix for state x (row-major,
// length |S|·|T|). Callers must not mutate it.
func (m *Model) StateRow(x int) []float64 { return m.dx[x] }

// NewEmpty allocates a zeroed model for the given hierarchy, slicer and
// state table. Generators and tests fill it with AddD.
func NewEmpty(h *hierarchy.Hierarchy, sl timeslice.Slicer, states []string) *Model {
	m := &Model{
		H:        h,
		Slicer:   sl,
		States:   append([]string(nil), states...),
		SliceDur: sl.Durations(),
		dx:       make([][]float64, len(states)),
	}
	for x := range m.dx {
		m.dx[x] = make([]float64, h.NumLeaves()*sl.N)
	}
	return m
}

// Options configures model construction.
type Options struct {
	// Slices is |T|; the paper uses 30 for all its case studies.
	Slices int
	// Start/End override the observation window; when both are zero the
	// window is taken from the trace.
	Start, End float64
}

// DefaultSlices is the microscopic temporal resolution used throughout the
// paper's evaluation (§V: "The microscopic model is each time composed by
// 30 timeslices").
const DefaultSlices = 30

// Build constructs the microscopic model of an in-memory trace. It is
// BuildStream over TraceSource(tr): the same events in the same order,
// the same range checks, a bit-identical model.
func Build(tr *trace.Trace, opt Options) (*Model, error) {
	return BuildStream(TraceSource(tr), opt)
}

// EventSource is a streaming supplier of events, implemented by the readers
// in package traceio. Header data (resources, states, window) must be
// available before the first Next call.
type EventSource interface {
	// Resources returns the resource paths (index = ResourceID).
	Resources() []string
	// States returns the state names (index = StateID).
	States() []string
	// Window returns the observation window.
	Window() (start, end float64)
	// Next fills ev with the next event; it returns io.EOF at the end.
	Next(ev *trace.Event) error
}

// BuildStream constructs the model from a streaming source without
// materializing the events, so Table II-scale traces (hundreds of millions
// of events) fit in O(|X|·|S|·|T|) memory. Each cell sums its events in
// stream order.
func BuildStream(src EventSource, opt Options) (*Model, error) {
	h, err := hierarchy.FromPaths(src.Resources())
	if err != nil {
		return nil, err
	}
	sl, err := opt.slicer(src.Window())
	if err != nil {
		return nil, err
	}
	m := NewEmpty(h, sl, src.States())
	r2leaf, err := leafMap(h, src.Resources())
	if err != nil {
		return nil, err
	}
	edges, w := boundaries(sl, 0, sl.N-1), sl.Width()
	var ev trace.Event
	for k := 0; ; k++ {
		if err := src.Next(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("microscopic: reading events: %w", err)
		}
		s, err := checkEvent(r2leaf, len(m.dx), k, ev)
		if err != nil {
			return nil, err
		}
		spread(m.dx[ev.State][s*sl.N:], edges, w, sl.Start, sl.End, ev.Start, ev.End)
	}
	return m, nil
}

// slicer resolves build options to the slicer a build fills: Slices
// defaults to DefaultSlices, and a zero Start/End means the source's
// observation window [winStart, winEnd).
func (opt Options) slicer(winStart, winEnd float64) (timeslice.Slicer, error) {
	n := opt.Slices
	if n <= 0 {
		n = DefaultSlices
	}
	start, end := opt.Start, opt.End
	if start == 0 && end == 0 {
		start, end = winStart, winEnd
	}
	sl, err := timeslice.New(start, end, n)
	if err != nil {
		return timeslice.Slicer{}, fmt.Errorf("microscopic: %w", err)
	}
	return sl, nil
}

// boundaries returns the n+1 boundary floats of slices lo..hi of sl,
// taken from Bounds so that edges[i+1] is bit-for-bit the end of slice
// lo+i and the start of slice lo+i+1.
func boundaries(sl timeslice.Slicer, lo, hi int) []float64 {
	edges := make([]float64, hi-lo+2)
	for i := range edges {
		edges[i], _ = sl.Bounds(lo + i)
	}
	return edges
}

// spread is the event→cell kernel of §III.A(2): it clips the event
// [start, end) to [clipLo, clipHi) and adds to row[i] the time the event
// spends in slice i, the slice bounded by edges[i] and edges[i+1], for
// every slice it overlaps. w is the slice width; it only guesses the first
// slice, which the table comparisons then make exact. An event that is
// empty after clipping, inverted or NaN adds nothing.
//
// The clips are plain compares, not math.Max/Min calls: a NaN start or
// end stays NaN and fails the guard, and past it no value is NaN, so the
// compares differ from Max/Min only in the sign of a zero, which neither
// a cell's b − a nor its b > a test can see.
func spread(row, edges []float64, w, clipLo, clipHi, start, end float64) {
	if clipLo > start {
		start = clipLo
	}
	if clipHi < end {
		end = clipHi
	}
	if !(end > start) {
		return
	}
	n := len(edges) - 1
	i := 0
	if g := (start - edges[0]) / w; g >= float64(n) {
		i = n - 1
	} else if g > 0 {
		i = int(g)
	}
	for i > 0 && edges[i] > start {
		i--
	}
	for i < n-1 && edges[i+1] <= start {
		i++
	}
	for ; i < n && edges[i] < end; i++ {
		a, b := start, end
		if edges[i] > a {
			a = edges[i]
		}
		if edges[i+1] < b {
			b = edges[i+1]
		}
		if b > a {
			row[i] += b - a
		}
	}
}

// Validate performs sanity checks: no negative durations, and (unless
// resources multiplex states, which MPI state traces do not) the per-area
// total Σ_x d_x(s,t) should not exceed d(t) by more than eps.
func (m *Model) Validate(eps float64) error {
	T := m.Slicer.N
	for s := 0; s < m.NumResources(); s++ {
		for t := 0; t < T; t++ {
			var tot float64
			for x := range m.dx {
				d := m.dx[x][s*T+t]
				if d < 0 {
					return fmt.Errorf("microscopic: negative d_%d(%d,%d) = %g", x, s, t, d)
				}
				tot += d
			}
			if tot > m.SliceDur[t]+eps {
				return fmt.Errorf("microscopic: overfull area (s=%d,t=%d): Σd=%g > d(t)=%g", s, t, tot, m.SliceDur[t])
			}
		}
	}
	return nil
}

// TotalTime returns Σ_x Σ_s Σ_t d_x(s,t), the total recorded busy time.
func (m *Model) TotalTime() float64 {
	var tot float64
	for _, row := range m.dx {
		for _, v := range row {
			tot += v
		}
	}
	return tot
}

// SliceProfile returns, for slice t, the per-state mean proportion over all
// resources: ρ_x(S, {t}) of Eq. 1 with S_k = S. Used by the temporal-only
// baseline and by renderers.
func (m *Model) SliceProfile(t int) []float64 {
	out := make([]float64, len(m.dx))
	n := m.NumResources()
	T := m.Slicer.N
	for x := range m.dx {
		var sum float64
		for s := 0; s < n; s++ {
			sum += m.dx[x][s*T+t]
		}
		if d := m.SliceDur[t]; d > 0 {
			out[x] = sum / (float64(n) * d)
		}
	}
	return out
}

// ResourceProfile returns, for resource s, the per-state time-weighted
// proportion over the whole window: ρ_x({s}, T). Used by the spatial-only
// baseline.
func (m *Model) ResourceProfile(s int) []float64 {
	out := make([]float64, len(m.dx))
	T := m.Slicer.N
	var dur float64
	for _, d := range m.SliceDur {
		dur += d
	}
	if dur <= 0 {
		return out
	}
	for x := range m.dx {
		var sum float64
		for t := 0; t < T; t++ {
			sum += m.dx[x][s*T+t]
		}
		out[x] = sum / dur
	}
	return out
}
