package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ocelotl/internal/eventstore"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// Trace is one loaded trace: its microscopic.Reslicer (the per-resource
// event index every window build and incremental derivation goes through)
// plus the metadata clients need to form window requests. Immutable after
// load, so handlers share it without locking.
type Trace struct {
	ID       string
	Path     string // source file, "" for traces loaded from memory
	Events   int
	LoadedAt time.Time

	resl *microscopic.Reslicer
	// gen distinguishes loads: an unload + reload of the same id gets a
	// fresh generation, so cache keys of the old load (including builds
	// still in flight during the unload) can never be served for the new
	// one.
	gen uint64
	// follow is non-nil for traces loaded in follow mode (live ingestion);
	// like the rest of the snapshot it is immutable — each follower tick
	// publishes a whole new Trace via swap.
	follow *followState
}

// Info summarizes a loaded trace for the JSON API.
type Info struct {
	ID        string   `json:"id"`
	Path      string   `json:"path,omitempty"`
	Events    int      `json:"events"`
	Resources int      `json:"resources"`
	States    []string `json:"states"`
	Start     float64  `json:"start"`
	End       float64  `json:"end"`
	LoadedAt  string   `json:"loaded_at"`
	Index     string   `json:"index"` // "ram" or "disk"
	// Follow is present for live-ingested traces.
	Follow *FollowInfo `json:"follow,omitempty"`
}

// FollowInfo publishes a follow trace's live-window coordinates. Lo, Hi,
// Slices and Pan are chosen so that querying any server — including a
// plain batch load of the same file — with exactly
// ?lo=Lo&hi=Hi&slices=Slices&pan=Pan reconstructs the live window
// float-for-float (JSON round-trips float64 exactly), which is how tests
// compare follow responses byte-for-byte against a scratch build.
type FollowInfo struct {
	Lo      float64 `json:"lo"`      // anchor grid start
	Hi      float64 `json:"hi"`      // anchor grid end
	Slices  int     `json:"slices"`  // slices per live window
	Pan     int     `json:"pan"`     // live window = anchor shifted this many slices
	Horizon float64 `json:"horizon"` // max event start ingested (sealed time)
	Ticks   int64   `json:"ticks"`   // ingestion ticks that carried events
	Offset  int64   `json:"offset"`  // committed byte offset in the source file
}

// Info renders the trace's metadata.
func (t *Trace) Info() Info {
	start, end := t.resl.TraceWindow()
	info := Info{
		ID:        t.ID,
		Path:      t.Path,
		Events:    t.Events,
		Resources: t.resl.Hierarchy().NumLeaves(),
		States:    t.resl.States(),
		Start:     start,
		End:       end,
		LoadedAt:  t.LoadedAt.UTC().Format(time.RFC3339),
		Index:     t.resl.IndexKind(),
	}
	if t.follow != nil {
		info.Follow = &FollowInfo{
			Lo:      t.follow.anchor.Start,
			Hi:      t.follow.anchor.End,
			Slices:  t.follow.anchor.N,
			Pan:     t.follow.pan,
			Horizon: t.follow.horizon,
			Ticks:   t.follow.ticks,
			Offset:  t.follow.offset,
		}
	}
	return info
}

// Registry holds the long-lived per-trace state: one Reslicer (and its
// hierarchy) per trace ID. Loading streams the trace once into the event
// index; every subsequent window request is served from the index without
// touching the file again.
type Registry struct {
	mu     sync.RWMutex
	traces map[string]*Trace
	now    func() time.Time
	gen    atomic.Uint64
	// indexOpts selects and tunes the Reslicer index backend for every
	// Load (zero value: IndexAuto with defaults — RAM below the
	// threshold, the on-disk store above it).
	indexOpts microscopic.IndexOptions
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{traces: make(map[string]*Trace), now: time.Now}
}

// SetIndexOptions configures the index backend used by subsequent Loads
// (daemon startup, before any trace is loaded).
func (r *Registry) SetIndexOptions(opt microscopic.IndexOptions) { r.indexOpts = opt }

// ErrAlreadyLoaded marks a load refused because its id is taken (unload
// first); POST /traces answers it with 409.
var ErrAlreadyLoaded = errors.New("already loaded")

// Load streams the trace file at path into a Reslicer and registers it
// under id. Loading an id that already exists is an error (unload first);
// concurrent loads of distinct ids proceed independently.
func (r *Registry) Load(id, path string) (*Trace, error) {
	if id == "" {
		return nil, fmt.Errorf("server: trace id must not be empty")
	}
	if _, exists := r.Get(id); exists {
		return nil, fmt.Errorf("server: trace %q %w", id, ErrAlreadyLoaded)
	}
	resl, err := r.indexFile(path)
	if err != nil {
		return nil, err
	}
	t, err := r.register(&Trace{ID: id, Path: path, resl: resl})
	if err != nil {
		resl.Close()
		return nil, err
	}
	return t, nil
}

// indexFile streams the trace file at path into a fresh event index: the
// batch load, the recovery rebuild and the scrub rebuild.
func (r *Registry) indexFile(path string) (*microscopic.Reslicer, error) {
	src, err := traceio.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return microscopic.NewReslicerIndexed(src, r.indexOpts)
}

// LoadTrace registers an in-memory trace (tests and embedders).
func (r *Registry) LoadTrace(id string, tr *trace.Trace) (*Trace, error) {
	if id == "" {
		return nil, fmt.Errorf("server: trace id must not be empty")
	}
	resl, err := microscopic.NewReslicer(tr)
	if err != nil {
		return nil, err
	}
	return r.register(&Trace{ID: id, resl: resl})
}

func (r *Registry) register(t *Trace) (*Trace, error) {
	t.Events = t.resl.NumEvents()
	t.LoadedAt = r.now()
	// A pre-set gen is a recovered trace keeping its journaled lineage
	// (the caller bumps the counter past it); everything else gets fresh.
	if t.gen == 0 {
		t.gen = r.gen.Add(1)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.traces[t.ID]; exists {
		return nil, fmt.Errorf("server: trace %q %w", t.ID, ErrAlreadyLoaded)
	}
	r.traces[t.ID] = t
	return t, nil
}

// bumpGen advances the generation counter to at least g — recovery calls
// it with each journaled gen so post-restart loads can never reuse a
// generation the manifest (and therefore old cache keys) already names.
func (r *Registry) bumpGen(g uint64) {
	for {
		cur := r.gen.Load()
		if cur >= g || r.gen.CompareAndSwap(cur, g) {
			return
		}
	}
}

// snapshot returns the registered traces (unsorted) — the manifest and
// scrub passes iterate it without holding the lock across their I/O.
func (r *Registry) snapshot() []*Trace {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Trace, 0, len(r.traces))
	for _, t := range r.traces {
		out = append(out, t)
	}
	return out
}

// swap replaces old with nw iff old is still the registered snapshot —
// the follower's per-tick publish and the scrub rebuild's. Keyed on
// pointer identity, it can neither resurrect an unloaded trace nor
// clobber a concurrent reload.
func (r *Registry) swap(old, nw *Trace) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.traces[old.ID]
	if !ok || cur != old {
		return false
	}
	r.traces[nw.ID] = nw
	return true
}

// Get returns the trace registered under id.
func (r *Registry) Get(id string) (*Trace, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.traces[id]
	return t, ok
}

// Remove unregisters id and reports whether it was present. The caller is
// responsible for purging any cached Inputs derived from it.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.traces[id]
	delete(r.traces, id)
	return ok
}

// List returns the loaded traces' metadata, sorted by id.
func (r *Registry) List() []Info {
	r.mu.RLock()
	out := make([]Info, 0, len(r.traces))
	for _, t := range r.traces {
		out = append(out, t.Info())
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IndexStats aggregates the loaded traces' index residency and read
// counters: index bytes (RAM arrays or disk directory — the fixed cost),
// open-chunk bytes (the disk backends' decoded caches), and the summed
// store read counters. Reported via /debug/cachestats and /metrics,
// distinct from Input (cache entry) bytes so the two budgets never
// double-count.
func (r *Registry) IndexStats() (indexBytes, openChunkBytes int64, rs eventstore.ReadStats) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, t := range r.traces {
		indexBytes += t.resl.IndexMemoryBytes()
		openChunkBytes += t.resl.OpenChunkBytes()
		st := t.resl.IndexReadStats()
		rs.ChunksRead += st.ChunksRead
		rs.BytesRead += st.BytesRead
		rs.CacheHits += st.CacheHits
	}
	return indexBytes, openChunkBytes, rs
}

// CloseAll unregisters every trace and releases its index (daemon
// shutdown: disk-backed indexes hold open store files that Close
// removes). Returns the first close error.
func (r *Registry) CloseAll() error {
	r.mu.Lock()
	traces := r.traces
	r.traces = make(map[string]*Trace)
	r.mu.Unlock()
	var first error
	for _, t := range traces {
		if err := t.resl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
