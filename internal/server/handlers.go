package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/render"
	"ocelotl/internal/timeslice"
)

// StatusClientClosedRequest is the 499 status (nginx's convention) the
// server answers with when a request's work was abandoned because its
// context died — the client went away or its deadline expired. The write
// usually lands nowhere (the client is gone), but the status keeps the
// request log and tests honest about why no real response was produced.
const StatusClientClosedRequest = 499

// isCancellation reports whether err is a context cancellation or
// deadline expiry — the errors the engine's ctx-aware entry points return
// when a request's work was abandoned rather than failed.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// abortIfCancelled maps a cancellation error to a 499 response and the
// aborted counter; it reports whether it consumed the error. Handlers call
// it first on any error coming back from a ctx-aware engine call.
func (s *Server) abortIfCancelled(w http.ResponseWriter, err error) bool {
	if err == nil || !isCancellation(err) {
		return false
	}
	s.cache.stats.Aborted.Add(1)
	httpError(w, StatusClientClosedRequest, err)
	return true
}

// shedIfOverloaded maps a build-gate refusal to 503 with a Retry-After
// derived from the gate's backlog estimate, and counts the shed; it
// reports whether it consumed the error.
func (s *Server) shedIfOverloaded(w http.ResponseWriter, err error) bool {
	var oe *OverloadError
	if !errors.As(err, &oe) {
		return false
	}
	s.cache.stats.Shed.Add(1)
	secs := int(math.Ceil(oe.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpError(w, http.StatusServiceUnavailable, err)
	return true
}

// writeGetError is the shared error tail of the cache-fill path:
// cancellation → 499, shed → 503 + Retry-After, anything else (including
// a recovered build panic) → 500.
func (s *Server) writeGetError(w http.ResponseWriter, err error) {
	if s.abortIfCancelled(w, err) || s.shedIfOverloaded(w, err) {
		return
	}
	httpError(w, http.StatusInternalServerError, err)
}

// loadRequest is the POST /traces body. The follow fields select live
// ingestion: follow tails a file still being written, poll_ms is the
// longest the follower goes without re-reading it (a write to a watched
// file wakes it at once), live_slices and slice_width shape the live
// window's grid (both optional — the defaults split the header's
// declared window into the standard slice count).
type loadRequest struct {
	ID         string  `json:"id"`
	Path       string  `json:"path"`
	Follow     bool    `json:"follow,omitempty"`
	PollMs     int     `json:"poll_ms,omitempty"`
	LiveSlices int     `json:"live_slices,omitempty"`
	SliceWidth float64 `json:"slice_width,omitempty"`
}

// maxLoadBody caps the POST /traces body: a load request is a few short
// fields, so anything near this size is not one.
const maxLoadBody = 64 << 10

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLoadBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpErrorf(w, status, "decoding body: %v", err)
		return
	}
	if req.ID == "" || req.Path == "" {
		httpErrorf(w, http.StatusBadRequest, `need {"id": ..., "path": ...}`)
		return
	}
	start := time.Now()
	var tr *Trace
	var err error
	if req.Follow {
		tr, err = s.startFollow(r.Context(), req)
	} else {
		tr, err = s.reg.Load(req.ID, req.Path)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrAlreadyLoaded) {
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}
	// The load is durable before the client sees the 201: a crash after
	// this point recovers the trace, a crash before it never claimed one.
	if err := s.Checkpoint(); err != nil {
		s.log.Warn("checkpoint after load failed", "trace", tr.ID, "error", err)
	}
	s.log.Info("trace loaded", "trace", tr.ID, "path", tr.Path,
		"events", tr.Events, "follow", req.Follow, "latency", time.Since(start))
	writeJSON(w, http.StatusCreated, tr.Info())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Traces []Info `json:"traces"`
	}{Traces: s.reg.List()})
}

func (s *Server) handleTraceInfo(w http.ResponseWriter, r *http.Request) {
	tr, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpErrorf(w, http.StatusNotFound, "trace %q not loaded", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, tr.Info())
}

func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Stop any follower first (cancel + wait): once the loop has exited it
	// can no longer publish a snapshot, so the Get below observes the final
	// one and the close at the bottom releases the newest index.
	s.stopFollower(id)
	tr, ok := s.reg.Get(id)
	if !ok || !s.reg.Remove(id) {
		httpErrorf(w, http.StatusNotFound, "trace %q not loaded", id)
		return
	}
	purged := s.cache.PurgeTrace(id, tr.gen)
	// Release the index last: a disk-backed reslicer holds an open store
	// file that Close removes. A build still in flight across this close
	// fails with an error (surfaced as that request's 500) — it can never
	// read recycled data into a model.
	storePath := tr.resl.StorePath()
	if err := tr.resl.Close(); err != nil {
		s.log.Warn("closing trace index", "trace", id, "error", err)
	}
	if s.state != nil {
		// Durable sidecar mode: Close keeps the store file, so the unload
		// removes it — then checkpoints, so the manifest never references
		// the deleted store.
		if storePath != "" {
			os.Remove(storePath)
		}
		if err := s.Checkpoint(); err != nil {
			s.log.Warn("checkpoint after unload failed", "trace", id, "error", err)
		}
	}
	s.log.Info("trace unloaded", "trace", id, "purged_windows", purged)
	w.WriteHeader(http.StatusNoContent)
}

// windowFromQuery resolves the shared window parameters (lo, hi, slices,
// pan) against a trace. lo/hi are absolute times defaulting to the full
// trace window; slices is |T|, capped at maxSlices because a window's
// Input costs O(|H(S)|·|T|²) before any cache budget applies; pan shifts
// the window by whole slices on its own grid — the grid-exact navigation
// path, so a panned request is derivable from its anchor window's cached
// Input.
//
// Two follow-mode extensions: live=1 resolves to the trace's current live
// window (the last slices of the anchored live grid — exactly the window
// the follower seeds each tick, so it is a cache hit between ticks); and
// any window reaching past the ingestion horizon is refused — the events
// beyond it haven't been ingested, so its Input would be a float soup the
// cache could never validate against later ticks.
func windowFromQuery(tr *Trace, q url.Values, maxSlices int) (timeslice.Slicer, error) {
	if q.Get("live") != "" {
		live, err := strconv.ParseBool(q.Get("live"))
		if err != nil {
			return timeslice.Slicer{}, fmt.Errorf("bad live=%q: %v", q.Get("live"), err)
		}
		if live {
			if tr.follow == nil {
				return timeslice.Slicer{}, fmt.Errorf("live=1 requires a trace loaded in follow mode")
			}
			if tr.follow.anchor.N > maxSlices {
				return timeslice.Slicer{}, fmt.Errorf("live window slices=%d exceeds the server cap %d", tr.follow.anchor.N, maxSlices)
			}
			return tr.follow.liveWindow(), nil
		}
	}
	start, end := tr.resl.TraceWindow()
	lo, err := finiteParam(q, "lo", start)
	if err != nil {
		return timeslice.Slicer{}, err
	}
	hi, err := finiteParam(q, "hi", end)
	if err != nil {
		return timeslice.Slicer{}, err
	}
	if q.Get("lo") != "" && lo < 0 {
		return timeslice.Slicer{}, fmt.Errorf("bad lo=%v: must be non-negative", lo)
	}
	if q.Get("hi") != "" && hi < 0 {
		return timeslice.Slicer{}, fmt.Errorf("bad hi=%v: must be non-negative", hi)
	}
	if hi <= lo {
		return timeslice.Slicer{}, fmt.Errorf("bad window: hi=%v must be greater than lo=%v", hi, lo)
	}
	slices, err := intParam(q, "slices", microscopic.DefaultSlices)
	if err != nil {
		return timeslice.Slicer{}, err
	}
	if slices <= 0 {
		return timeslice.Slicer{}, fmt.Errorf("bad slices=%d: must be positive", slices)
	}
	if slices > maxSlices {
		return timeslice.Slicer{}, fmt.Errorf("slices=%d exceeds the server cap %d", slices, maxSlices)
	}
	pan, err := intParam(q, "pan", 0)
	if err != nil {
		return timeslice.Slicer{}, err
	}
	sl, err := timeslice.New(lo, hi, slices)
	if err != nil {
		return timeslice.Slicer{}, err
	}
	if pan != 0 {
		// A far pan can overflow the grid offset or round the window's
		// floats to infinity or to an empty interval.
		sl = sl.Shift(pan)
		if math.IsInf(sl.Start, 0) || math.IsInf(sl.End, 0) || !(sl.End > sl.Start) {
			return timeslice.Slicer{}, fmt.Errorf("bad pan=%d: the shifted window is not representable", pan)
		}
	}
	if tr.follow != nil && sl.End > tr.follow.horizon {
		return timeslice.Slicer{}, fmt.Errorf("window end %v is past the ingestion horizon %v: not yet ingested", sl.End, tr.follow.horizon)
	}
	return sl, nil
}

func floatParam(q url.Values, name string, def float64) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %v", name, s, err)
	}
	return v, nil
}

// finiteParam is floatParam restricted to finite values: window bounds
// (±Inf would slip past timeslice.New's emptiness check) and
// /significant's eps (NaN would stop every gap from subdividing, cutting
// the ladder to its two endpoints).
func finiteParam(q url.Values, name string, def float64) (float64, error) {
	v, err := floatParam(q, name, def)
	if err != nil {
		return 0, err
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("bad %s=%q: must be finite", name, q.Get(name))
	}
	return v, nil
}

func intParam(q url.Values, name string, def int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %v", name, s, err)
	}
	return v, nil
}

// resolveWindow resolves the trace and window of a query request and runs
// the admission guard: a window whose Input alone would exceed the cache
// budget is rejected with 413 before any arena is allocated — the
// estimate is arithmetic (core.EstimateMemoryBytes), so the refusal costs
// nothing and the working ladder is never evicted to make room for one
// oversized request.
func (s *Server) resolveWindow(w http.ResponseWriter, r *http.Request) (*Trace, timeslice.Slicer, bool) {
	tr, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		httpErrorf(w, http.StatusNotFound, "trace %q not loaded", r.PathValue("id"))
		return nil, timeslice.Slicer{}, false
	}
	sl, err := windowFromQuery(tr, r.URL.Query(), s.maxSlices)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return nil, timeslice.Slicer{}, false
	}
	if err := s.cache.Admit(tr, sl); err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return nil, timeslice.Slicer{}, false
	}
	return tr, sl, true
}

// Degrade reasons reported in the X-Ocelotl-Degraded header.
const (
	degradeSlowBuild = "slow-build" // fine build exceeded the degrade deadline
	degradeFault     = "fault"      // fine build died on a retryable error
	degradeOverload  = "overload"   // build gate shed the request but a preview was warm
)

// getInput runs the window through the cache and records the build path
// and latency in the response headers: one join, then one wait on the
// flight, the request context and — with degrade set — the degrade
// deadline. A dead request (expired deadline, disconnected client)
// answers 499 without waiting; its stake in the flight drops with its
// context (see InputCache.Get).
//
// /aggregate's two preview answers share one serve-the-covering-preview
// path (previewFor):
//
//   - refine=1, the progressive zoom: an exact cached window is final
//     ("ready" in X-Ocelotl-Refine); otherwise a covering cached window's
//     coarse overview is served at once ("pending") while the fine build
//     runs in the background; with nothing covering the request ("none")
//     it takes the synchronous path.
//   - degrade-to-preview: if the fine build exceeds the degrade deadline,
//     dies on a retryable fault, or is shed by the build gate while a
//     cached window covers the request, the covering preview is served
//     instead, with the reason in the X-Ocelotl-Degraded header. A slow
//     fine build is kept alive in the background, as for refine=1.
//
// The second return value reports whether the Input is a preview.
func (s *Server) getInput(w http.ResponseWriter, r *http.Request, tr *Trace, sl timeslice.Slicer, refine, degrade bool) (*core.Input, bool, bool) {
	start := time.Now()
	ctx := r.Context()
	in, f, kind, err := s.cache.join(ctx, tr, sl)
	if refine && err == nil {
		state := "ready"
		if f != nil {
			if pv := s.previewFor(w, tr, sl, start, f); pv != nil {
				s.cache.stats.Previews.Add(1)
				w.Header().Set(refineHeader, "pending")
				return pv, true, true
			}
			state = "none"
		}
		w.Header().Set(refineHeader, state)
	}
	degrade = degrade && s.degradeAfter > 0
	var slow <-chan time.Time
	if f != nil && degrade {
		timer := time.NewTimer(s.degradeAfter)
		defer timer.Stop()
		slow = timer.C
	}
wait:
	for f != nil {
		select {
		case <-f.done:
			in, kind, err = f.result(kind)
			break wait
		case <-ctx.Done():
			err = ctx.Err()
			break wait
		case <-slow:
			if pv := s.previewFor(w, tr, sl, start, f); pv != nil {
				return s.degraded(w, pv, degradeSlowBuild)
			}
			// Nothing cached covers the request, so no degraded answer
			// exists: wait the slow build out.
			slow = nil
		}
	}
	if err != nil {
		if degrade && !isCancellation(err) {
			reason := degradeFault
			var oe *OverloadError
			if errors.As(err, &oe) {
				reason = degradeOverload
			}
			if pv := s.previewFor(w, tr, sl, start, nil); pv != nil {
				return s.degraded(w, pv, reason)
			}
		}
		s.writeGetError(w, err)
		return nil, false, false
	}
	w.Header().Set(buildHeader, string(kind))
	w.Header().Set(buildLatencyHeader, strconv.FormatInt(time.Since(start).Microseconds(), 10))
	return in, false, true
}

// degraded answers with the covering preview pv in place of the fine
// build, for the given reason.
func (s *Server) degraded(w http.ResponseWriter, pv *core.Input, reason string) (*core.Input, bool, bool) {
	s.cache.stats.Degraded.Add(1)
	w.Header().Set(degradedHeader, reason)
	return pv, true, true
}

// previewFor is the one serve-the-covering-preview path: the tightest
// cached window covering sl, served through its memoized coarse overview
// (InputCache.Preview) with the preview build headers. A non-nil fine
// flight keeps going after the request under the server's own deadline
// (InputCache.adopt), so the client's follow-up for the same URL lands
// on a warm entry. Nil, with no headers written and no stake taken, when
// no cached window covers the request.
func (s *Server) previewFor(w http.ResponseWriter, tr *Trace, sl timeslice.Slicer, start time.Time, fine *flight) *core.Input {
	pv := s.cache.Preview(tr, sl)
	if pv == nil {
		return nil
	}
	if fine != nil {
		s.cache.adopt(fine, s.timeout)
	}
	w.Header().Set(buildHeader, string(BuildPreview))
	w.Header().Set(buildLatencyHeader, strconv.FormatInt(time.Since(start).Microseconds(), 10))
	return pv
}

// inputFor is resolveWindow + getInput — the shared serve path of the
// query endpoints other than /aggregate.
func (s *Server) inputFor(w http.ResponseWriter, r *http.Request) (*Trace, *core.Input, bool) {
	tr, sl, ok := s.resolveWindow(w, r)
	if !ok {
		return nil, nil, false
	}
	in, _, ok := s.getInput(w, r, tr, sl, false, false)
	if !ok {
		return nil, nil, false
	}
	return tr, in, true
}

// windowJSON describes the exact window a response was computed over.
type windowJSON struct {
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Slices int     `json:"slices"`
}

func windowOf(in *core.Input) windowJSON {
	sl := in.Model.Slicer
	return windowJSON{Start: sl.Start, End: sl.End, Slices: sl.N}
}

// areaJSON is one aggregate of the optimal partition.
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

// aggregateJSON is the GET /traces/{id}/aggregate body. Preview marks a
// progressive (refine=1) response computed over a coarse covering window
// instead of the requested one; it is omitted otherwise, so non-preview
// bodies stay byte-identical across build paths.
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

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p, err := floatParam(q, "p", 0.35)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	tr, sl, ok := s.resolveWindow(w, r)
	if !ok {
		return
	}
	// A degraded body is the same preview body refine=1 would serve —
	// byte-identical across the two paths.
	in, preview, ok := s.getInput(w, r, tr, sl, q.Get("refine") == "1", true)
	if !ok {
		return
	}
	pt, err := in.SolveContext(r.Context(), p)
	if err != nil {
		if !s.abortIfCancelled(w, err) {
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	resp := aggregateJSON{
		Trace:   tr.ID,
		P:       p,
		Window:  windowOf(in),
		Preview: preview,
		Gain:    pt.Gain,
		Loss:    pt.Loss,
		PIC:     pt.PIC,
		Areas:   make([]areaJSON, 0, len(pt.Areas)),
	}
	states := tr.resl.States()
	for _, ar := range pt.Areas {
		info := in.Describe(ar)
		aj := areaJSON{
			Path:   ar.Node.Path,
			I:      ar.I,
			J:      ar.J,
			Leaves: ar.Leaves(),
			Alpha:  info.Alpha,
			Gain:   info.Gain,
			Loss:   info.Loss,
			Rho:    info.Rho,
		}
		if info.Mode >= 0 && info.Mode < len(states) {
			aj.Mode = states[info.Mode]
		}
		resp.Areas = append(resp.Areas, aj)
	}
	writeJSON(w, http.StatusOK, resp)
}

// qualityJSON is one quality-curve sample.
type qualityJSON struct {
	P     float64 `json:"p"`
	Areas int     `json:"areas"`
	Gain  float64 `json:"gain"`
	Loss  float64 `json:"loss"`
}

func qualityPoints(pts []core.QualityPoint) []qualityJSON {
	out := make([]qualityJSON, len(pts))
	for i, q := range pts {
		out[i] = qualityJSON{P: q.P, Areas: q.Areas, Gain: q.Gain, Loss: q.Loss}
	}
	return out
}

func (s *Server) handleSignificant(w http.ResponseWriter, r *http.Request) {
	eps, err := finiteParam(r.URL.Query(), "eps", 1e-3)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	tr, in, ok := s.inputFor(w, r)
	if !ok {
		return
	}
	points, err := in.SignificantPsContext(r.Context(), eps)
	if err != nil {
		if !s.abortIfCancelled(w, err) {
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	}
	s.cache.stats.SweepQueries.Add(1)
	s.cache.stats.SweepPs.Add(int64(len(points)))
	writeJSON(w, http.StatusOK, struct {
		Trace  string        `json:"trace"`
		Eps    float64       `json:"eps"`
		Window windowJSON    `json:"window"`
		Points []qualityJSON `json:"points"`
	}{Trace: tr.ID, Eps: eps, Window: windowOf(in), Points: qualityPoints(points)})
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	ps, err := psParam(r.URL.Query().Get("ps"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	tr, in, ok := s.inputFor(w, r)
	if !ok {
		return
	}
	points, err := in.SweepQualityContext(r.Context(), ps)
	if err != nil {
		if !s.abortIfCancelled(w, err) {
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	s.cache.stats.SweepQueries.Add(1)
	s.cache.stats.SweepPs.Add(int64(len(points)))
	writeJSON(w, http.StatusOK, struct {
		Trace  string        `json:"trace"`
		Window windowJSON    `json:"window"`
		Points []qualityJSON `json:"points"`
	}{Trace: tr.ID, Window: windowOf(in), Points: qualityPoints(points)})
}

// maxQualityPs caps the /quality sweep size: each entry is an O(|S|·|T|³)
// solve, and a request's admitted work should stay bounded up front even
// though a timed-out request's sweep is now cancelled cooperatively (the
// cap bounds the work between the last response byte wanted and the first
// cancellation check; cancellation is a backstop, not an admission
// policy).
const maxQualityPs = 128

// psParam parses the comma-separated p list of /quality.
func psParam(spec string) ([]float64, error) {
	if spec == "" {
		return []float64{0.1, 0.25, 0.5, 0.75, 0.9}, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) > maxQualityPs {
		return nil, fmt.Errorf("ps lists %d values, server cap is %d", len(parts), maxQualityPs)
	}
	ps := make([]float64, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad ps entry %q: %v", part, err)
		}
		ps = append(ps, v)
	}
	return ps, nil
}

// maxRenderDim caps /render's width/height: a PNG allocates 4·W·H bytes
// before a single rect is drawn, so unbounded dimensions would let one
// request exhaust the daemon the same way an unbounded |T| would.
const maxRenderDim = 4096

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p, err := floatParam(q, "p", 0.35)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	width, err := intParam(q, "width", 1000)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	height, err := intParam(q, "height", 600)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if width > maxRenderDim || height > maxRenderDim {
		httpErrorf(w, http.StatusBadRequest, "render dimensions %dx%d exceed the server cap %d", width, height, maxRenderDim)
		return
	}
	minH, err := floatParam(q, "minheight", 2)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	format := q.Get("format")
	switch format {
	case "":
		format = "png"
	case "png", "svg":
	default:
		httpErrorf(w, http.StatusBadRequest, "unknown format %q (want png or svg)", format)
		return
	}
	_, in, ok := s.inputFor(w, r)
	if !ok {
		return
	}
	pt, err := in.SolveContext(r.Context(), p)
	if err != nil {
		if !s.abortIfCancelled(w, err) {
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	sc := render.BuildScene(in, pt, render.Options{Width: width, Height: height, MinHeight: minH})
	if format == "png" {
		w.Header().Set("Content-Type", "image/png")
		err = sc.PNG(w)
	} else {
		w.Header().Set("Content-Type", "image/svg+xml")
		err = sc.SVG(w)
	}
	if err != nil {
		s.log.Error("render failed", "error", err)
	}
}

func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.CacheStats())
}
