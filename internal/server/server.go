// Package server is the serving layer over the aggregation engine: a
// long-lived HTTP/JSON front-end that keeps one microscopic.Reslicer per
// loaded trace (Registry) and a window-keyed, byte-budgeted LRU cache of
// core.Inputs (InputCache) whose misses are derived incrementally from
// the nearest cached overlapping window via Input.Update instead of a
// from-scratch input pass. It is the interactive-analysis interface the
// paper argues for, turned into a service: an analyst (or dashboard) pans
// and zooms a spatiotemporal window and re-aggregates at chosen p values,
// and the expensive O(|X|·|H(S)|·|T|²) input pass is paid only for the
// slices that actually changed.
//
// Layering: traceio streams events → microscopic indexes them (Reslicer)
// → core builds Inputs and answers p-queries, at most GOMAXPROCS solves
// in flight per process → server caches the Inputs per window and
// speaks JSON.
//
// Traces may also be loaded in follow mode ({"follow": true} on POST
// /traces): the server tails the file while a writer is still appending
// to it, extends the trace's index copy-on-write on each tick — woken by
// a write to the file, or by the poll when the file is not watched or
// stays quiet — and serves a sliding live window (live=1 on any query endpoint) whose
// responses stay byte-identical to a scratch build over the events
// ingested so far. The ingestion itself is the live package's Follower —
// the one engine `ocelotl -follow` drives too; follow.go wraps it in the
// daemon's policies (loop and backoff, registry publish, cache seed and
// purge) and explains the horizon rule that keeps the cache exact across
// ticks.
//
// Endpoints:
//
//	POST   /traces                      load a trace file {"id","path"}
//	GET    /traces                      list loaded traces
//	GET    /traces/{id}                 one trace's metadata
//	DELETE /traces/{id}                 unload (purges its cached windows)
//	GET    /traces/{id}/aggregate       optimal partition at p over a window
//	GET    /traces/{id}/significant     significant-p ladder over a window
//	GET    /traces/{id}/quality         quality-curve samples at given ps
//	GET    /traces/{id}/render          PNG/SVG view of the partition
//	GET    /debug/cachestats            cache counters (hits/derived/...)
//	GET    /debug/scrub                 verify stores + manifest (state.go)
//	GET    /metrics                     the same counters, Prometheus format
//	GET    /healthz                     liveness
//
// Both counter endpoints are rendered from one table (stats.go): each
// counter or gauge is a single struct field tagged with its JSON key,
// Prometheus name and help text.
//
// Window selection is shared by every query endpoint: lo/hi (absolute
// times, default: the whole trace), slices (|T|, default 30) and pan (a
// slice shift applied on the window's grid, the interactive-pan path —
// grid-exact, so a panned request is derivable from its anchor's cached
// Input). Responses carry the build path (hit/derived/scratch/coalesced/
// preview) and build latency in X-Ocelotl-Build / X-Ocelotl-Build-Us
// headers, keeping bodies byte-comparable across build paths.
//
// The cache behind those endpoints is multi-resolution (see InputCache):
// entries are keyed by (trace, window), and the most recently used entry
// of each of a trace's 8 most recently used grid levels (slice widths) is
// pinned as a per-trace ladder, so zooming back to a familiar resolution resolves as a hit or an
// incremental same-grid derivation instead of an event-index rebuild. Two guards
// bound the residency this trades on: windows whose single Input would
// exceed the cache budget are rejected up front with 413 (estimated
// arithmetically, before building), and /aggregate accepts refine=1 for
// progressive zooms — when a cached window covers the request, its coarse
// overview is returned immediately (X-Ocelotl-Refine: pending, body
// marked "preview") while the fine build proceeds in the background.
//
// Every request's context is plumbed through the cache fill and into the
// engine's ctx-aware entry points (core.Input's SolveContext,
// SweepQualityContext and SignificantPsContext), so a request whose client
// disconnected or whose deadline expired stops consuming solver scratch
// and CPU within one hierarchy-node check instead of running to
// completion. Abandoned requests answer 499 and increment the "aborted"
// counter in /debug/cachestats. Singleflight builds are the one deliberate
// exception: a flight's build runs on a goroutine of its own, under a
// context of its own (its result is shared by every request that joined
// it); each joined request holds a stake that its context's end drops,
// and the build is cancelled only when every stake is dropped. A request
// waits in one place, for its flight to land, its own context to end or
// — on /aggregate — the degrade deadline, whichever comes first.
package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/failpoint"
	"ocelotl/internal/microscopic"
)

// Config tunes a Server.
type Config struct {
	// CacheBytes budgets the window-keyed Input cache (default 256 MiB;
	// negative disables caching entirely).
	CacheBytes int64
	// Core configures every Input built by the server: normalization
	// and worker count. Concurrent solves are bounded per process by
	// core (GOMAXPROCS), not per Input.
	Core core.Options
	// RequestTimeout bounds each request's handling (default 30 s; ≤ 0
	// disables the limit). The timeout arrives at the handlers as a
	// deadline on the request context (http.TimeoutHandler), which the
	// serve path forwards into the engine — so expiry does not merely
	// report failure, it cancels the request's remaining solve/sweep work.
	RequestTimeout time.Duration
	// MaxSlices caps the slices (|T|) parameter of window requests
	// (default DefaultMaxSlices). A single Input costs
	// O(|H(S)|·|T|²) memory and the build is paid before the cache
	// budget applies, so an unbounded |T| would let one request exhaust
	// the daemon; over-limit requests are rejected with 400.
	MaxSlices int
	// MaxConcurrentBuilds bounds how many window builds run at once
	// (default GOMAXPROCS; negative disables the gate). Builds beyond
	// the bound queue FIFO; see MaxQueuedBuilds.
	MaxConcurrentBuilds int
	// MaxQueuedBuilds caps the build gate's FIFO wait queue (default
	// 4× the build bound). A request that finds the queue full — or
	// whose deadline is shorter than the estimated wait to the front —
	// is shed immediately with 503 + Retry-After instead of queueing
	// past its budget.
	MaxQueuedBuilds int
	// DegradeAfter is the degrade deadline of /aggregate: when the fine
	// build of a window takes longer than this and a cached window
	// covers the request, the response degrades to the covering window's
	// memoized coarse preview (X-Ocelotl-Degraded: slow-build) while the
	// fine build completes in the background. Also applies when the fine
	// build dies on a retryable fault or is shed by the gate — a warm
	// preview beats a 500/503. Default DefaultDegradeAfter; negative
	// disables degradation.
	DegradeAfter time.Duration
	// Logger receives the structured per-request log (default
	// slog.Default()).
	Logger *slog.Logger
	// Index selects and tunes the event-index backend for loaded traces
	// (the out-of-core path). The zero value is IndexAuto: RAM below the
	// event threshold, the chunked on-disk store above it — so small
	// traces keep the fast path and huge ones stop being rejected by RAM.
	Index microscopic.IndexOptions
	// StateDir enables durable daemon state (see state.go): the manifest
	// journal lives here, disk-backed index stores become durable
	// sidecars (Index.KeepStore is forced on; Index.Dir defaults to
	// StateDir/stores), and Recover must be called before serving to
	// replay the journal. Empty disables journaling — stores stay
	// load-time temporaries and a restart boots empty, the prior
	// behavior.
	StateDir string
	// CheckpointTicks is how many event-carrying follow ticks elapse
	// between periodic manifest checkpoints (0 = DefaultCheckpointTicks;
	// negative disables tick-driven checkpoints, leaving load/unload/
	// shutdown as the only checkpoint sites). Only meaningful with
	// StateDir set. A tick counts only once the follower's poll interval
	// has passed since the last one that counted, so a writer whose
	// flushes each wake a tick does not multiply manifest writes: the
	// count is of poll intervals that carried events.
	CheckpointTicks int
}

// DefaultCacheBytes is the Input-cache budget when Config.CacheBytes is 0.
const DefaultCacheBytes = 256 << 20

// DefaultMaxSlices is the per-request |T| cap when Config.MaxSlices is 0:
// generous against the paper's 30 while keeping a single window's
// triangular matrices (O(|H(S)|·|T|²)) bounded.
const DefaultMaxSlices = 512

// DefaultDegradeAfter is the degrade deadline when Config.DegradeAfter
// is 0: long enough that warm derivations and small scratch builds
// always answer fine, short enough that an analyst staring at a stalled
// zoom gets the coarse preview well before an interactive pause turns
// into an outage.
const DefaultDegradeAfter = 2 * time.Second

// defaultQueueFactor sizes the build gate's wait queue from its
// concurrency bound when Config.MaxQueuedBuilds is 0.
const defaultQueueFactor = 4

// Server is the long-lived aggregation service: a registry of loaded
// traces and the window-keyed Input cache serving every query endpoint.
type Server struct {
	reg          *Registry
	cache        *InputCache
	log          *slog.Logger
	timeout      time.Duration
	maxSlices    int
	degradeAfter time.Duration
	// draining flips /readyz to 503 during shutdown so the fleet's
	// balancer stops routing here while in-flight requests finish.
	draining atomic.Bool
	// followers tracks the live-ingestion loop of each follow-loaded
	// trace (see follow.go); guarded by followMu.
	followMu  sync.Mutex
	followers map[string]*follower
	// Durable state (see state.go): stateDir is Config.StateDir, state
	// the manifest keeper — nil until Recover, and nil forever when
	// journaling is disabled. Written once before serving starts.
	stateDir        string
	checkpointTicks int
	state           *stateKeeper
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	budget := cfg.CacheBytes
	if budget == 0 {
		budget = DefaultCacheBytes
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	maxSlices := cfg.MaxSlices
	if maxSlices <= 0 {
		maxSlices = DefaultMaxSlices
	}
	degradeAfter := cfg.DegradeAfter
	if degradeAfter == 0 {
		degradeAfter = DefaultDegradeAfter
	}
	cache := NewInputCache(budget, cfg.Core, DefaultLadderLevels)
	if cfg.MaxConcurrentBuilds >= 0 {
		capacity := cfg.MaxConcurrentBuilds
		if capacity == 0 {
			capacity = runtime.GOMAXPROCS(0)
		}
		maxQueue := cfg.MaxQueuedBuilds
		if maxQueue == 0 {
			maxQueue = defaultQueueFactor * capacity
		}
		if maxQueue < 0 {
			maxQueue = 0
		}
		cache.gate = newBuildGate(capacity, maxQueue)
	}
	checkpointTicks := cfg.CheckpointTicks
	if checkpointTicks == 0 {
		checkpointTicks = DefaultCheckpointTicks
	}
	if cfg.StateDir != "" {
		// Durable state needs the stores to outlive the process: force
		// the sidecar mode and give the stores a home inside the state
		// directory unless -index-dir placed them elsewhere.
		cfg.Index.KeepStore = true
		if cfg.Index.Dir == "" {
			cfg.Index.Dir = filepath.Join(cfg.StateDir, "stores")
		}
	}
	reg := NewRegistry()
	reg.SetIndexOptions(cfg.Index)
	return &Server{
		reg:             reg,
		cache:           cache,
		log:             logger,
		timeout:         timeout,
		maxSlices:       maxSlices,
		degradeAfter:    degradeAfter,
		followers:       make(map[string]*follower),
		stateDir:        cfg.StateDir,
		checkpointTicks: checkpointTicks,
	}
}

// SetDraining flips the /readyz readiness signal: a draining server
// still answers every endpoint (in-flight and straggler requests
// complete normally) but tells balancers to stop routing new work to it.
// The daemon sets it on SIGTERM before starting the HTTP drain.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Registry exposes the trace registry (preloading at daemon startup).
func (s *Server) Registry() *Registry { return s.reg }

// CacheStats exposes the cache counters plus the registry's index
// residency and read counters (tests, metrics scrapers,
// /debug/cachestats).
func (s *Server) CacheStats() StatsSnapshot {
	snap := s.cache.Snapshot()
	ib, ocb, rs := s.reg.IndexStats()
	snap.IndexBytes = ib
	snap.IndexOpenChunkBytes = ocb
	snap.IndexChunksRead = rs.ChunksRead
	snap.IndexChunkHits = rs.CacheHits
	snap.IndexBytesRead = rs.BytesRead
	return snap
}

// Handler returns the fully assembled HTTP handler: routes, per-request
// timeout, and structured request logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /traces", s.handleLoad)
	mux.HandleFunc("GET /traces", s.handleList)
	mux.HandleFunc("GET /traces/{id}", s.handleTraceInfo)
	mux.HandleFunc("DELETE /traces/{id}", s.handleUnload)
	mux.HandleFunc("GET /traces/{id}/aggregate", s.handleAggregate)
	mux.HandleFunc("GET /traces/{id}/significant", s.handleSignificant)
	mux.HandleFunc("GET /traces/{id}/quality", s.handleQuality)
	mux.HandleFunc("GET /traces/{id}/render", s.handleRender)
	mux.HandleFunc("GET /debug/cachestats", s.handleCacheStats)
	mux.HandleFunc("GET /debug/failpoints", s.handleFailpoints)
	mux.HandleFunc("GET /debug/scrub", s.handleScrub)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	h := s.recoverPanics(mux)
	if s.timeout > 0 {
		h = http.TimeoutHandler(h, s.timeout, "request timed out\n")
	}
	return s.logRequests(h)
}

// recoverPanics is the last-resort panic barrier of the serve path: a
// handler that panics (outside the flight-level recovery in runBuild)
// answers 500 instead of tearing down the connection, and the panic is
// counted and logged with its stack. http.ErrAbortHandler passes through
// — it is the standard way to abort a response, not a fault.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.cache.stats.Panics.Add(1)
			s.log.Error("handler panic", "path", r.URL.Path, "panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			// Best effort: if the handler already wrote, this is a no-op.
			httpErrorf(w, http.StatusInternalServerError, "internal panic: %v", rec)
		}()
		next.ServeHTTP(w, r)
	})
}

// handleFailpoints lists the armed fault-injection points. In production
// the list must be empty — the serving smoke gates on it — so the
// endpoint doubles as the release check that no chaos configuration
// leaked into a real deployment.
func (s *Server) handleFailpoints(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Active []failpoint.Status `json:"active"`
	}{Active: failpoint.Active()})
}

// statusWriter captures the status code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// logRequests emits one structured line per request: method, path,
// status, total latency, and — for query endpoints — the cache build path
// (hit / derived / scratch / coalesced) and build latency the handler
// recorded in the response headers.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"latency", time.Since(start),
		}
		if build := w.Header().Get(buildHeader); build != "" {
			attrs = append(attrs, "build", build,
				"build_latency_us", w.Header().Get(buildLatencyHeader))
		}
		s.log.Info("request", attrs...)
	})
}

// buildHeader and buildLatencyHeader expose the cache build path without
// touching the response body, so identical windows produce byte-identical
// bodies whether served from cache, derivation or scratch.
const (
	buildHeader        = "X-Ocelotl-Build"
	buildLatencyHeader = "X-Ocelotl-Build-Us"
	// refineHeader reports the progressive-zoom state of an aggregate
	// request with refine=1: "ready" (the exact window was cached — the
	// body is final), "pending" (the body is a coarse covering preview;
	// the fine build is running, re-request to get it), or "none" (nothing
	// covered the request; the body was built synchronously and is final).
	refineHeader = "X-Ocelotl-Refine"
	// degradedHeader marks a response served from the coarse covering
	// preview because the fine build could not answer in time: the value
	// names the reason ("slow-build", "fault", "overload"). The body is
	// byte-identical to what the refine path would serve for the same
	// window; re-requesting (optionally with refine=1) returns the fine
	// answer once the background build lands.
	degradedHeader = "X-Ocelotl-Degraded"
)

// writeJSON serializes v with a trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

func httpErrorf(w http.ResponseWriter, status int, format string, args ...any) {
	httpError(w, status, fmt.Errorf(format, args...))
}
