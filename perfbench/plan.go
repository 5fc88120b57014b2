package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"ocelotl/internal/grid5000"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// Sizes fixes how much work one run does. A run is a pure function of
// (Sizes, seed): the seed varies the simulated trace and the order and
// parameters of the requests, never their number or mix, so two runs of
// one build differ only in speed.
type Sizes struct {
	// Scale is the fraction of the paper's case A event count (NAS-PB CG,
	// 64 processes) the simulated trace holds.
	Scale float64 `json:"scale"`
	// Slices is |T| of every requested window.
	Slices int `json:"slices"`
	// SetupReps is how many times a run sets up a fresh server; setup_s is
	// their median and the last one serves the measured phase.
	SetupReps int `json:"setup_reps"`
	// Requests is the measured request count (explore, sweep).
	Requests int `json:"requests"`

	// Levels is the explore grid-level count: level L has slice width
	// span/(Slices·2^L), so level 0 is the whole trace.
	Levels int `json:"levels,omitempty"`
	// SweepWindows is the number of windows sweep queries, all warmed in
	// set-up; SweepPs is the p-set size of each /quality request.
	SweepWindows int `json:"sweep_windows,omitempty"`
	SweepPs      int `json:"sweep_ps,omitempty"`

	// Follow: AppendEvents events in Batches flushed batches of equal
	// size, one due every IntervalMs, appended to a trace the daemon polls
	// every PollMs. LiveSpan sets the live grid (slice width = header
	// span/(Slices·LiveSpan)) and HistorySpan the sealed-history grid the
	// reader pans over.
	AppendEvents int     `json:"append_events,omitempty"`
	Batches      int     `json:"batches,omitempty"`
	IntervalMs   float64 `json:"interval_ms,omitempty"`
	PollMs       int     `json:"poll_ms,omitempty"`
	LiveSpan     int     `json:"live_span,omitempty"`
	HistorySpan  int     `json:"history_span,omitempty"`
}

// sizesFor returns the full-size configuration of a workload for a run
// measuring about seconds of work on a 2-core x86 machine. Request and
// batch counts scale with seconds, so one --seconds value always means
// the same work.
func sizesFor(workload string, seconds int) (Sizes, error) {
	switch workload {
	case "explore":
		return Sizes{Scale: 0.3, Slices: 40, SetupReps: 21, Requests: 90 * seconds, Levels: 9}, nil
	case "sweep":
		return Sizes{Scale: 0.3, Slices: 40, SetupReps: 21, Requests: 22 * seconds, SweepWindows: 8, SweepPs: 16}, nil
	case "follow":
		// The sealed prefix decodes to more than the store's default
		// 32 MiB chunk cache, so history pans read chunks from disk. The
		// batch interval (37 ms) and the poll (50 ms) are coprime, so the
		// flush/tick phase sweeps uniformly through the run.
		return Sizes{Scale: 0.6, Slices: 30, SetupReps: 3, Batches: seconds * 1000 / 37,
			AppendEvents: 12000 * seconds, IntervalMs: 37, PollMs: 50, LiveSpan: 4, HistorySpan: 16}, nil
	}
	return Sizes{}, fmt.Errorf("unknown workload %q (want explore, sweep or follow)", workload)
}

// Request is one planned query. Windows are always sent as the grid base
// (lo, hi, slices) plus a pan, so every window of one grid level shares
// exact boundary floats and pans are derivable on the server.
type Request struct {
	// Class is the planned request class: hit, pan, zoom, jump (explore),
	// quality, significant (sweep), live, history (follow), warm (set-up).
	Class    string    `json:"class"`
	Endpoint string    `json:"endpoint"` // aggregate, quality or significant
	Live     bool      `json:"live,omitempty"`
	Level    int       `json:"level"`
	Lo       float64   `json:"lo"`
	Hi       float64   `json:"hi"`
	Slices   int       `json:"slices"`
	Pan      int       `json:"pan"`
	P        float64   `json:"p,omitempty"`
	Ps       []float64 `json:"ps,omitempty"`
	Eps      float64   `json:"eps,omitempty"`
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// URL is the request's path and query on a server that loaded the trace
// under id.
func (r Request) URL(id string) string {
	q := url.Values{}
	if r.Live {
		q.Set("live", "1")
	} else {
		q.Set("lo", fmtFloat(r.Lo))
		q.Set("hi", fmtFloat(r.Hi))
		q.Set("slices", strconv.Itoa(r.Slices))
		q.Set("pan", strconv.Itoa(r.Pan))
	}
	switch r.Endpoint {
	case "aggregate":
		q.Set("p", fmtFloat(r.P))
	case "quality":
		ps := ""
		for i, p := range r.Ps {
			if i > 0 {
				ps += ","
			}
			ps += fmtFloat(p)
		}
		q.Set("ps", ps)
	case "significant":
		q.Set("eps", fmtFloat(r.Eps))
	}
	return "/traces/" + id + "/" + r.Endpoint + "?" + q.Encode()
}

// Window is the slicer the server resolves a non-live request to.
func (r Request) Window() (timeslice.Slicer, error) {
	sl, err := timeslice.New(r.Lo, r.Hi, r.Slices)
	if err != nil {
		return sl, err
	}
	return sl.Shift(r.Pan), nil
}

// Plan is everything a run replays, written by gen before the run starts.
type Plan struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Sizes    Sizes     `json:"sizes"`
	Events   int       `json:"events"`
	Warm     []Request `json:"warm"`
	Requests []Request `json:"requests"`
	// Follow only: the first Prefix events of the time-sorted trace are in
	// the file before the daemon loads it; the rest arrive in
	// Sizes.Batches batches of Batch events.
	Prefix int `json:"prefix,omitempty"`
	Batch  int `json:"batch,omitempty"`
}

const (
	planFile  = "plan.json"
	traceFile = "trace.bin"
)

// aggregatePs are the p values aggregate requests draw from.
var aggregatePs = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// scenario is the simulated platform and application every workload
// traces: the paper's case A, NAS-PB CG on 64 processes.
func scenario() (grid5000.Scenario, error) { return grid5000.Scenarios(grid5000.CaseA) }

// traceSeed seeds the simulation. The trace is the same for every run
// seed: the simulator's seed picks the ranks its anomaly perturbs, which
// changes the partition structure and with it the solve cost of a window
// by tens of percent. The run seed varies what the analyst asks instead.
const traceSeed = 42

// generate writes the workload's trace and plan into dir. Follow traces
// are written time-sorted, the order a live writer appends in.
func generate(dir, workload string, seed int64, sz Sizes) (*Plan, error) {
	sc, err := scenario()
	if err != nil {
		return nil, err
	}
	res, err := mpisim.Generate(sc, mpisim.Config{Seed: traceSeed, Scale: sz.Scale})
	if err != nil {
		return nil, err
	}
	tr := res.Trace
	if workload == "follow" {
		sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].Start < tr.Events[j].Start })
	}
	if err := traceio.WriteFile(filepath.Join(dir, traceFile), tr); err != nil {
		return nil, err
	}
	pl, err := makePlan(workload, seed, sz, tr)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(pl)
	if err != nil {
		return nil, err
	}
	return pl, os.WriteFile(filepath.Join(dir, planFile), data, 0o644)
}

func loadPlan(dir string) (*Plan, error) {
	data, err := os.ReadFile(filepath.Join(dir, planFile))
	if err != nil {
		return nil, err
	}
	var pl Plan
	if err := json.Unmarshal(data, &pl); err != nil {
		return nil, fmt.Errorf("decoding plan: %w", err)
	}
	return &pl, nil
}

// makePlan derives the request (and batch) sequence from the seed and the
// generated trace.
func makePlan(workload string, seed int64, sz Sizes, tr *trace.Trace) (*Plan, error) {
	rng := rand.New(rand.NewSource(seed))
	pl := &Plan{Workload: workload, Seed: seed, Sizes: sz, Events: len(tr.Events)}
	start, end := tr.Window()
	switch workload {
	case "explore":
		w := newWalker(rng, sz.Slices, sz.Levels, start, end)
		pl.Warm, pl.Requests = w.plan(sz.Requests)
	case "sweep":
		pl.Warm, pl.Requests = planSweep(rng, sz, start, end)
	case "follow":
		per := sz.AppendEvents / sz.Batches
		if per == 0 || sz.AppendEvents >= len(tr.Events) {
			return nil, fmt.Errorf("follow: cannot append %d of %d events in %d batches", sz.AppendEvents, len(tr.Events), sz.Batches)
		}
		pl.Batch = per
		pl.Prefix = len(tr.Events) - per*sz.Batches
		horizon := tr.Events[pl.Prefix-1].Start
		pl.Requests = planFollowReader(rng, sz, start, horizon)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return pl, nil
}

// levelWindow is the request for position k of grid level L over
// [start, end): Slices slices of width (end-start)/(Slices·2^L).
func levelWindow(start, end float64, slices, L, k int) Request {
	hi := start + (end-start)/float64(int(1)<<L)
	return Request{Endpoint: "aggregate", Level: L, Lo: start, Hi: hi, Slices: slices, Pan: k}
}

// deck returns one shuffled block of request classes with fixed shares,
// so every block of a plan holds the same mix whatever the seed.
func deck(rng *rand.Rand, counts map[string]int, order []string) []string {
	var d []string
	for _, c := range order {
		for i := 0; i < counts[c]; i++ {
			d = append(d, c)
		}
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

type pos struct{ L, K int }

// walker plans explore's navigation: a seeded walk over the grid levels
// that keeps its own model of what the server has cached, so each planned
// class lands on the intended build path —
//
//   - hit: a revisit of one of the last few distinct windows (still cached);
//   - pan: a fresh window 1-3 slices from the current one (derived from it);
//   - zoom: a fresh window on the adjacent level, 1-3 slices from that
//     level's last window, which the ladder pins (a ladder derivation);
//   - jump: a fresh window overlapping nothing ever visited at its level
//     (a scratch build).
//
// Shares per block of 20 are 6 hit, 7 pan, 3 zoom, 4 jump: cheapest to
// dearest, the cumulative shares 30%, 65%, 80% keep p50 and p90 inside a
// class rather than on a boundary.
type walker struct {
	rng        *rand.Rand
	n, levels  int
	start, end float64
	visited    map[pos]bool
	atLevel    map[int][]int
	recent     []pos // distinct, most recent first
	last       map[int]pos
	cur        pos
}

// hitDepth is how many recent distinct windows a revisit draws from.
const hitDepth = 6

// minWalkLevel is the coarsest level pans, zooms and jumps use; levels
// below it hold too few windows to keep finding fresh ones.
const minWalkLevel = 2

func newWalker(rng *rand.Rand, n, levels int, start, end float64) *walker {
	return &walker{rng: rng, n: n, levels: levels, start: start, end: end,
		visited: map[pos]bool{}, atLevel: map[int][]int{}, last: map[int]pos{}}
}

func (w *walker) maxK(L int) int { return w.n * ((1 << L) - 1) }

func (w *walker) fresh(p pos) bool {
	return p.L >= 0 && p.L < w.levels && p.K >= 0 && p.K <= w.maxK(p.L) && !w.visited[p]
}

func (w *walker) visit(p pos) {
	if !w.visited[p] {
		w.visited[p] = true
		w.atLevel[p.L] = append(w.atLevel[p.L], p.K)
	}
	for i, r := range w.recent {
		if r == p {
			w.recent = append(w.recent[:i], w.recent[i+1:]...)
			break
		}
	}
	w.recent = append([]pos{p}, w.recent...)
	if len(w.recent) > 4*hitDepth {
		w.recent = w.recent[:4*hitDepth]
	}
	w.last[p.L] = p
	w.cur = p
}

// near returns a fresh window 1-3 slices from base on base's level.
func (w *walker) near(base pos) (pos, bool) {
	ds := []int{-3, -2, -1, 1, 2, 3}
	w.rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	for _, d := range ds {
		if p := (pos{base.L, base.K + d}); w.fresh(p) {
			return p, true
		}
	}
	return pos{}, false
}

// jumpTries bounds the search for a window clear of every visited one;
// past it a jump settles for any fresh window, which the server may
// derive instead of building from scratch.
const jumpTries = 1000

// jump returns a fresh window sharing no slice with any window ever
// visited at its level.
func (w *walker) jump() pos {
	for try := 0; ; try++ {
		L := minWalkLevel + w.rng.Intn(w.levels-minWalkLevel)
		p := pos{L, w.rng.Intn(w.maxK(L) + 1)}
		clear := w.fresh(p)
		for _, v := range w.atLevel[L] {
			if !clear || try >= jumpTries {
				break
			}
			clear = p.K-v >= w.n || v-p.K >= w.n
		}
		if clear {
			return p
		}
	}
}

func (w *walker) step(class string) (pos, string) {
	switch class {
	case "hit":
		if len(w.recent) > 1 {
			n := min(hitDepth, len(w.recent)-1)
			return w.recent[1+w.rng.Intn(n)], "hit"
		}
	case "pan":
		if p, ok := w.near(w.cur); ok {
			return p, "pan"
		}
	case "zoom":
		// After a revisit of the overview the walk zooms back in to its
		// coarsest level.
		targets := []int{minWalkLevel}
		if w.cur.L >= minWalkLevel {
			targets = targets[:0]
			for _, L := range []int{w.cur.L - 1, w.cur.L + 1} {
				if L >= minWalkLevel && L < w.levels {
					targets = append(targets, L)
				}
			}
		}
		L := targets[w.rng.Intn(len(targets))]
		if last, ok := w.last[L]; ok {
			if p, ok := w.near(last); ok {
				return p, "zoom"
			}
		}
	}
	return w.jump(), "jump"
}

func (w *walker) request(p pos, class string) Request {
	r := levelWindow(w.start, w.end, w.n, p.L, p.K)
	r.Class = class
	r.P = aggregatePs[w.rng.Intn(len(aggregatePs))]
	return r
}

// plan returns the set-up warm-up (the whole-trace overview and a first
// window on the walk's coarsest level) and count measured requests.
func (w *walker) plan(count int) (warm, reqs []Request) {
	for _, p := range []pos{{0, 0}, {minWalkLevel, w.rng.Intn(w.maxK(minWalkLevel) + 1)}} {
		warm = append(warm, w.request(p, "warm"))
		w.visit(p)
	}
	counts := map[string]int{"hit": 6, "pan": 7, "zoom": 3, "jump": 4}
	order := []string{"hit", "pan", "zoom", "jump"}
	for len(reqs) < count {
		for _, c := range deck(w.rng, counts, order) {
			if len(reqs) == count {
				break
			}
			p, class := w.step(c)
			reqs = append(reqs, w.request(p, class))
			w.visit(p)
		}
	}
	return warm, reqs
}

// planSweep warms SweepWindows windows tiling the trace (a power of two)
// in set-up, then sends /quality requests (SweepPs fresh uniform p values
// each, so no p set repeats) and /significant requests at a seeded eps:
// every block holds three /quality and one /significant request per
// window, in seeded order.
func planSweep(rng *rand.Rand, sz Sizes, start, end float64) (warm, reqs []Request) {
	L := bits.Len(uint(sz.SweepWindows)) - 1
	for i := 0; i < sz.SweepWindows; i++ {
		r := levelWindow(start, end, sz.Slices, L, i*sz.Slices)
		r.Class, r.P = "warm", 0.5
		warm = append(warm, r)
	}
	type pick struct {
		window int
		class  string
	}
	var block []pick
	for w := range warm {
		for _, c := range []string{"quality", "quality", "quality", "significant"} {
			block = append(block, pick{w, c})
		}
	}
	for len(reqs) < sz.Requests {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, pk := range block {
			if len(reqs) == sz.Requests {
				break
			}
			c := pk.class
			r := warm[pk.window]
			r.Class, r.Endpoint, r.P = c, c, 0
			if c == "quality" {
				r.Ps = make([]float64, sz.SweepPs)
				for i := range r.Ps {
					r.Ps[i] = 0.01 + 0.98*rng.Float64()
				}
				sort.Float64s(r.Ps)
			} else {
				r.Eps = 0.002 + 0.002*rng.Float64()
			}
			reqs = append(reqs, r)
		}
	}
	return warm, reqs
}

// followReaderCap bounds the planned reader sequence per second of run;
// the reader cycles through it until ingestion ends.
const followReaderCap = 400

// planFollowReader plans the follow reader: per block of 5, two live=1
// views and three pans into the history sealed at load, walking forward
// 1-3 slices on a fixed grid and wrapping at its end.
func planFollowReader(rng *rand.Rand, sz Sizes, start, horizon float64) []Request {
	// Keep the last history window strictly inside the sealed horizon
	// despite rounding in the grid arithmetic.
	hi := start + (horizon-start)*0.999
	maxK := sz.Slices * (sz.HistorySpan - 1)
	k := rng.Intn(maxK + 1)
	counts := map[string]int{"live": 2, "history": 3}
	order := []string{"live", "history"}
	n := followReaderCap * max(1, int(float64(sz.Batches)*sz.IntervalMs/1000))
	var reqs []Request
	for len(reqs) < n {
		for _, c := range deck(rng, counts, order) {
			var r Request
			if c == "live" {
				r = Request{Endpoint: "aggregate", Live: true, Slices: sz.Slices}
			} else {
				if k += 1 + rng.Intn(3); k > maxK {
					k = 0
				}
				r = Request{Endpoint: "aggregate", Lo: start,
					Hi: start + (hi-start)/float64(sz.HistorySpan), Slices: sz.Slices, Pan: k}
			}
			r.Class = c
			r.P = aggregatePs[rng.Intn(len(aggregatePs))]
			reqs = append(reqs, r)
		}
	}
	return reqs
}
