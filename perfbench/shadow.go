package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"

	"ocelotl/internal/core"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/partition"
	"ocelotl/internal/server"
	"ocelotl/internal/timeslice"
)

// shadow replays the serve path of recorded requests with the
// benchmark's own calls into each layer's public functions, one span per
// call: InputCache.Admit, Reslicer.BuildAt/Shift, core.NewInputContext/
// UpdateContext, AcquireSolverContext, RunContext or the sweep kernels,
// and the JSON encode of the body. Spans of request i hang under the
// request's root span (and the build spans under its cache span), so a
// layer's share of a request can be read off the trace. The replay runs
// after the measured pass, so it adds nothing to the pass's timings.
type shadow struct {
	tr     *Tracer
	ctx    context.Context
	resl   *microscopic.Reslicer
	states []string
	// admitTr and admit run the server's admission guard on a trace with
	// the daemon's hierarchy and cache budget.
	admitTr *server.Trace
	admit   *server.InputCache
	held    []*core.Input // most recently used first
	buf     bytes.Buffer
	// mismatches counts replayed bodies whose checksum differs from the
	// daemon's answer to the same request.
	mismatches int
}

// shadowHeld bounds the replay's own Input cache: enough for every
// revisit and derivation source the plans produce.
const shadowHeld = 32

func newShadow(tr *Tracer, resl *microscopic.Reslicer, path string) (*shadow, error) {
	reg := server.NewRegistry()
	reg.SetIndexOptions(microscopic.IndexOptions{Mode: microscopic.IndexRAM})
	st, err := reg.Load(traceID, path)
	if err != nil {
		return nil, err
	}
	return &shadow{
		tr: tr, ctx: context.Background(), resl: resl, states: resl.States(),
		admitTr: st, admit: server.NewInputCache(server.DefaultCacheBytes, core.Options{}, 0),
	}, nil
}

func (s *shadow) doAdmit(i, parent int, sl timeslice.Slicer) error {
	_, err := s.tr.Time("server.admit", parent, i, func() error { return s.admit.Admit(s.admitTr, sl) })
	return err
}

func sameWindow(a, b timeslice.Slicer) bool {
	return a.Start == b.Start && a.End == b.End && a.N == b.N
}

func (s *shadow) hold(in *core.Input) {
	for j, h := range s.held {
		if sameWindow(h.Model.Slicer, in.Model.Slicer) {
			s.held = append(s.held[:j], s.held[j+1:]...)
			break
		}
	}
	s.held = append([]*core.Input{in}, s.held...)
	if len(s.held) > shadowHeld {
		s.held = s.held[:shadowHeld]
	}
}

// scratch builds sl's Input from the event index; record=false keeps a
// build the daemon did not do (a replay-cache miss) out of the spans.
func (s *shadow) scratch(i, parent int, sl timeslice.Slicer, record bool) (*core.Input, error) {
	tr := s.tr
	if !record {
		tr = nil
	}
	var m *microscopic.Model
	if _, err := tr.Time("microscopic.build", parent, i, func() (err error) {
		m, err = s.resl.BuildAt(sl)
		return err
	}); err != nil {
		return nil, err
	}
	var in *core.Input
	if _, err := tr.Time("core.fill", parent, i, func() (err error) {
		in, err = core.NewInputContext(s.ctx, m, core.Options{}) // the daemon's default Config.Core
		return err
	}); err != nil {
		return nil, err
	}
	s.hold(in)
	return in, nil
}

// input obtains sl's Input the way the daemon did for this request: a
// lookup for a hit, Shift+UpdateContext from the most-overlapping held
// window for a derivation, BuildAt+NewInputContext for a scratch build.
func (s *shadow) input(i, parent int, sl timeslice.Slicer, kind string) (*core.Input, error) {
	switch kind {
	case "hit":
		for _, h := range s.held {
			if sameWindow(h.Model.Slicer, sl) {
				s.hold(h)
				return h, nil
			}
		}
		return s.scratch(i, parent, sl, false)
	case "derived", "zoom_derived":
		var src *core.Input
		var best microscopic.SliceOverlap
		for _, h := range s.held {
			if h.Model.Slicer.N != sl.N {
				continue
			}
			if ov := microscopic.GridOverlap(h.Model.Slicer, sl); ov.Shared() && ov.W > best.W {
				src, best = h, ov
			}
		}
		if src == nil {
			break
		}
		var m *microscopic.Model
		var ov microscopic.SliceOverlap
		if _, err := s.tr.Time("microscopic.shift", parent, i, func() (err error) {
			m, ov, err = s.resl.Shift(src.Model, best.Shift())
			return err
		}); err != nil {
			return nil, err
		}
		var in *core.Input
		if _, err := s.tr.Time("core.update", parent, i, func() (err error) {
			in, err = src.UpdateContext(s.ctx, m, ov)
			return err
		}); err != nil {
			return nil, err
		}
		s.hold(in)
		return in, nil
	}
	return s.scratch(i, parent, sl, kind == "scratch")
}

// acquire times AcquireSolverContext: how long a request waits for
// solver scratch from the Input's bounded pool.
func (s *shadow) acquire(i, parent int, in *core.Input) (*core.Solver, error) {
	var sv *core.Solver
	_, err := s.tr.Time("core.solver_wait", parent, i, func() (err error) {
		sv, err = in.AcquireSolverContext(s.ctx)
		return err
	})
	return sv, err
}

// The body types mirror the daemon's JSON answers field for field, so a
// replayed encode does the same work and yields the same bytes.
type windowJSON struct {
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Slices int     `json:"slices"`
}

type areaJSON struct {
	Path   string    `json:"path"`
	I      int       `json:"i"`
	J      int       `json:"j"`
	Leaves int       `json:"leaves"`
	Mode   string    `json:"mode,omitempty"`
	Alpha  float64   `json:"alpha"`
	Gain   float64   `json:"gain"`
	Loss   float64   `json:"loss"`
	Rho    []float64 `json:"rho"`
}

type aggregateJSON struct {
	Trace   string     `json:"trace"`
	P       float64    `json:"p"`
	Window  windowJSON `json:"window"`
	Preview bool       `json:"preview,omitempty"`
	Gain    float64    `json:"gain"`
	Loss    float64    `json:"loss"`
	PIC     float64    `json:"pic"`
	Areas   []areaJSON `json:"areas"`
}

type qualityJSON struct {
	P     float64 `json:"p"`
	Areas int     `json:"areas"`
	Gain  float64 `json:"gain"`
	Loss  float64 `json:"loss"`
}

func windowOf(in *core.Input) windowJSON {
	sl := in.Model.Slicer
	return windowJSON{Start: sl.Start, End: sl.End, Slices: sl.N}
}

func qualityPoints(pts []core.QualityPoint) []qualityJSON {
	out := make([]qualityJSON, len(pts))
	for i, q := range pts {
		out[i] = qualityJSON{P: q.P, Areas: q.Areas, Gain: q.Gain, Loss: q.Loss}
	}
	return out
}

// encode times the body's JSON encoding (build + marshal, as the daemon's
// handler does) and checks it against the daemon's body checksum when
// want is non-nil.
func (s *shadow) encode(i, parent int, want *uint32, body func() any) error {
	_, err := s.tr.Time("server.encode", parent, i, func() error {
		s.buf.Reset()
		return json.NewEncoder(&s.buf).Encode(body())
	})
	if err == nil && want != nil && crc32.Checksum(s.buf.Bytes(), castagnoli) != *want {
		s.mismatches++
	}
	return err
}

// aggregate replays one /aggregate request on in.
func (s *shadow) aggregate(i, parent int, in *core.Input, p float64, want *uint32) error {
	sv, err := s.acquire(i, parent, in)
	if err != nil {
		return err
	}
	var pt *partition.Partition
	_, err = s.tr.Time("core.solve", parent, i, func() (err error) {
		pt, err = sv.RunContext(s.ctx, p)
		return err
	})
	in.ReleaseSolver(sv)
	if err != nil {
		return err
	}
	return s.encode(i, parent, want, func() any {
		resp := aggregateJSON{Trace: traceID, P: p, Window: windowOf(in), Gain: pt.Gain, Loss: pt.Loss,
			PIC: pt.PIC, Areas: make([]areaJSON, 0, len(pt.Areas))}
		for _, ar := range pt.Areas {
			info := in.Describe(ar)
			aj := areaJSON{Path: ar.Node.Path, I: ar.I, J: ar.J, Leaves: ar.Leaves(),
				Alpha: info.Alpha, Gain: info.Gain, Loss: info.Loss, Rho: info.Rho}
			if info.Mode >= 0 && info.Mode < len(s.states) {
				aj.Mode = s.states[info.Mode]
			}
			resp.Areas = append(resp.Areas, aj)
		}
		return resp
	})
}

// sweep replays one /quality or /significant request on in and returns
// how many p points it answered.
func (s *shadow) sweep(i, parent int, in *core.Input, r Request, want *uint32) (int, error) {
	sv, err := s.acquire(i, parent, in)
	if err != nil {
		return 0, err
	}
	in.ReleaseSolver(sv)
	var pts []core.QualityPoint
	if r.Endpoint == "quality" {
		_, err = s.tr.Time("core.sweep", parent, i, func() (err error) {
			pts, err = in.SweepQualityContext(s.ctx, r.Ps)
			return err
		})
	} else {
		_, err = s.tr.Time("core.significant", parent, i, func() (err error) {
			pts, err = in.SignificantPsContext(s.ctx, r.Eps)
			return err
		})
	}
	if err != nil {
		return 0, err
	}
	return len(pts), s.encode(i, parent, want, func() any {
		if r.Endpoint == "quality" {
			return struct {
				Trace  string        `json:"trace"`
				Window windowJSON    `json:"window"`
				Points []qualityJSON `json:"points"`
			}{Trace: traceID, Window: windowOf(in), Points: qualityPoints(pts)}
		}
		return struct {
			Trace  string        `json:"trace"`
			Eps    float64       `json:"eps"`
			Window windowJSON    `json:"window"`
			Points []qualityJSON `json:"points"`
		}{Trace: traceID, Eps: r.Eps, Window: windowOf(in), Points: qualityPoints(pts)}
	})
}
