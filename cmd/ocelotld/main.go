// Command ocelotld is the long-lived aggregation server: it keeps one
// microscopic.Reslicer per loaded trace and a window-keyed LRU cache of
// core.Inputs, serving optimal partitions, significant-p ladders, quality
// curves and rendered views over HTTP/JSON. Window misses are derived
// incrementally from the nearest cached overlapping window, so interactive
// pan sequences cost O(changed slices) per step instead of a fresh input
// pass; the cache additionally pins a multi-resolution ladder per hot
// trace (one window per visited slice-width level, 8 levels deep),
// so zooming back to a familiar resolution derives incrementally too
// instead of rebuilding from the event index.
//
//	ocelotld -addr :8087 -cache-mb 256
//	ocelotld -load caseA=caseA.bin -load run7=run7.csv.gz
//	ocelotld -follow live=still-running.bin
//
// Then, for example:
//
//	curl -X POST -d '{"id":"a","path":"caseA.bin"}' localhost:8087/traces
//	curl -X POST -d '{"id":"b","path":"growing.bin","follow":true}' localhost:8087/traces
//	curl 'localhost:8087/traces/a/aggregate?p=0.35&slices=30'
//	curl 'localhost:8087/traces/b/aggregate?p=0.35&live=1'
//	curl 'localhost:8087/traces/a/aggregate?p=0.35&slices=30&pan=3'
//	curl 'localhost:8087/traces/a/aggregate?p=0.35&slices=30&lo=2.5&hi=4.5&refine=1'
//	curl localhost:8087/debug/cachestats
//	curl localhost:8087/metrics
//
// The refine=1 form is the progressive zoom: when a cached window covers
// the request, its coarse overview is returned immediately
// (X-Ocelotl-Refine: pending) while the fine build runs in the
// background; re-requesting the same URL returns the final answer.
// Windows whose single Input would exceed the cache budget are rejected
// with 413 before any build.
//
// -index selects the event-index backend for loaded traces: auto (the
// default — RAM below ~4M events, the chunked on-disk eventstore above),
// ram, or disk; -index-dir places the store files (an SSD path for big
// deployments). /traces/{id} reports each trace's backend in its "index"
// field, and /debug/cachestats adds index_bytes (fixed index residency,
// distinct from cached Input bytes), index_open_chunk_bytes (decoded-
// chunk cache), and the index_chunks_read / index_chunk_hits /
// index_bytes_read locality counters — also exported as ocelotl_index_*
// at /metrics. Disk-backed store files are load-time temporaries,
// removed when the trace unloads or the daemon shuts down.
//
// Overload control: at most -max-builds window builds run concurrently
// (-build-queue more wait FIFO; the rest are shed with 503 +
// Retry-After), and an /aggregate whose fine build runs past
// -degrade-after is answered from the coarse covering preview
// (X-Ocelotl-Degraded) while the build finishes in the background.
// -failpoint arms named fault-injection sites for chaos testing —
// /debug/failpoints lists what's armed, and must be empty in production.
//
// -state-dir makes the daemon crash-safe: loaded traces, their sealed
// index stores, and each follower's committed resume offset are
// journaled into a CRC'd manifest (written atomically: temp + fsync +
// rename + directory fsync) on every load/unload and every
// -checkpoint-ticks poll intervals that carried events. On boot the daemon recovers the
// journal — sealed stores reopen in place instead of re-indexing,
// followers resume their tail at the journaled byte offset with no event
// lost or double-ingested, and orphaned temp/store files from the crash
// are swept. -load/-follow preloads of already-recovered ids are skipped
// (so a supervisor can restart the daemon with identical flags), and
// store files become durable sidecars under <state-dir>/stores (or
// -index-dir if set) instead of load-time temporaries. GET /debug/scrub
// verifies the live stores' chunk CRCs and the manifest — quarantining
// and rebuilding what fails — and `ocelotld -scrub -state-dir DIR` runs
// the same check offline, printing a JSON report and exiting non-zero if
// anything is damaged.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: /readyz flips to
// 503 immediately (wait -drain-wait for balancers to notice), then the
// listener closes, in-flight requests drain, and (with -state-dir) a
// final checkpoint journals the shutdown state.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/failpoint"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8087", "listen address")
		cacheMB   = flag.Int("cache-mb", 256, "Input-cache byte budget in MiB (0 disables caching)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request handling timeout (0 disables)")
		workers   = flag.Int("workers", 0, "worker count for input passes and p-sweeps (0 = GOMAXPROCS)")
		normalize = flag.Bool("normalize", false, "normalize gain/loss by their full-aggregation values")
		maxSlices = flag.Int("max-slices", 0, "per-request cap on the slices (|T|) parameter (0 = default 512)")
		grace     = flag.Duration("grace", 10*time.Second, "shutdown grace period")
		drainWait = flag.Duration("drain-wait", 0, "pause between flipping /readyz to draining and closing the listener, so balancers stop routing first")
		maxBuilds = flag.Int("max-builds", 0, "concurrent window builds admitted by the overload gate (0 = GOMAXPROCS, negative disables the gate)")
		buildQ    = flag.Int("build-queue", 0, "builds allowed to queue for a gate slot before shedding (0 = 4x max-builds)")
		degrade   = flag.Duration("degrade-after", 0, "serve the coarse covering preview when a fine build runs past this (0 = default 2s, negative disables)")
		indexName = flag.String("index", "auto", "event index backend for loaded traces: auto (RAM below threshold, disk above), ram, disk")
		indexDir  = flag.String("index-dir", "", "directory for on-disk index store files (default: the system temp dir; with -state-dir, <state-dir>/stores)")
		stateDir  = flag.String("state-dir", "", "directory for durable daemon state: the manifest journal and (by default) the index stores; enables crash recovery")
		ckptTicks = flag.Int("checkpoint-ticks", 0, "follow ticks that carried events, at most one per poll interval, between periodic manifest checkpoints (0 = default 50, negative disables; needs -state-dir)")
		scrub     = flag.Bool("scrub", false, "verify the -state-dir manifest and store CRCs offline, print a JSON report, and exit (non-zero if damaged)")
		verbose   = flag.Bool("v", false, "debug-level logging")
	)
	var preloads []string
	flag.Func("load", "preload a trace as id=path (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want id=path, got %q", v)
		}
		preloads = append(preloads, v)
		return nil
	})
	var follows []string
	flag.Func("follow", "preload a trace in follow mode as id=path: the file may still be written; the daemon tails it and serves a sliding live window (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want id=path, got %q", v)
		}
		follows = append(follows, v)
		return nil
	})
	var failpoints []string
	flag.Func("failpoint", "arm a failpoint as name=spec, e.g. 'server/flight=10%error(chaos)' (repeatable; chaos testing only)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want name=spec, got %q", v)
		}
		failpoints = append(failpoints, v)
		return nil
	})
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *scrub {
		if *stateDir == "" {
			logger.Error("-scrub needs -state-dir")
			os.Exit(2)
		}
		rep, err := server.ScrubState(*stateDir)
		if err != nil {
			logger.Error("scrub failed", "error", err)
			os.Exit(2)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		if !rep.Clean {
			os.Exit(1)
		}
		return
	}

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB <= 0 {
		cacheBytes = -1 // disable rather than fall back to the default
	}
	indexMode, err := microscopic.ParseIndexMode(*indexName)
	if err != nil {
		logger.Error("bad -index", "error", err)
		os.Exit(1)
	}
	for _, spec := range failpoints {
		name, fpSpec, _ := strings.Cut(spec, "=")
		if err := failpoint.Enable(name, fpSpec); err != nil {
			logger.Error("bad -failpoint", "spec", spec, "error", err)
			os.Exit(1)
		}
		logger.Warn("failpoint armed — chaos configuration, not for production", "name", name, "spec", fpSpec)
	}

	srv := server.New(server.Config{
		CacheBytes:          cacheBytes,
		Core:                core.Options{Normalize: *normalize, Workers: *workers},
		RequestTimeout:      *timeout,
		MaxSlices:           *maxSlices,
		MaxConcurrentBuilds: *maxBuilds,
		MaxQueuedBuilds:     *buildQ,
		DegradeAfter:        *degrade,
		Logger:              logger,
		Index:               microscopic.IndexOptions{Mode: indexMode, Dir: *indexDir},
		StateDir:            *stateDir,
		CheckpointTicks:     *ckptTicks,
	})
	if *stateDir != "" {
		rep, err := srv.Recover(context.Background())
		if err != nil {
			logger.Error("state recovery failed", "state_dir", *stateDir, "error", err)
			os.Exit(1)
		}
		logger.Info("state recovered", "state_dir", *stateDir, "manifest_seq", rep.ManifestSeq,
			"restored", rep.Restored, "reopened", rep.Reopened, "rebuilt", rep.Rebuilt,
			"resumed", rep.Resumed, "restarted", rep.Restarted, "orphans", rep.Orphans,
			"manifest_corrupt", rep.ManifestCorrupt, "skipped", rep.Skipped)
	}
	// Preloads tolerate ids that recovery already restored, so a
	// supervisor can restart a crashed daemon with identical flags.
	for _, spec := range preloads {
		id, path, _ := strings.Cut(spec, "=")
		tr, err := srv.Registry().Load(id, path)
		if err != nil {
			if errors.Is(err, server.ErrAlreadyLoaded) {
				logger.Info("preload already recovered", "trace", id)
				continue
			}
			logger.Error("preload failed", "spec", spec, "error", err)
			os.Exit(1)
		}
		logger.Info("preloaded", "trace", tr.ID, "path", path, "events", tr.Events)
	}
	for _, spec := range follows {
		id, path, _ := strings.Cut(spec, "=")
		tr, err := srv.FollowTrace(context.Background(), id, path)
		if err != nil {
			if errors.Is(err, server.ErrAlreadyLoaded) {
				logger.Info("follow preload already recovered", "trace", id)
				continue
			}
			logger.Error("follow preload failed", "spec", spec, "error", err)
			os.Exit(1)
		}
		logger.Info("following", "trace", tr.ID, "path", path, "events", tr.Events)
	}
	if err := srv.Checkpoint(); err != nil {
		logger.Warn("post-preload checkpoint failed", "error", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("ocelotld listening", "addr", *addr, "cache_mb", *cacheMB, "timeout", *timeout)

	select {
	case err := <-errCh:
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// Flip /readyz to draining first so load balancers stop routing new
	// requests, then (after -drain-wait) close the listener and drain
	// what's in flight.
	srv.SetDraining(true)
	if *drainWait > 0 {
		logger.Info("draining", "wait", *drainWait)
		time.Sleep(*drainWait)
	}
	logger.Info("shutting down", "grace", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown incomplete", "error", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server failed", "error", err)
		os.Exit(1)
	}
	// Stop the follow-mode ingestion loops before releasing the indexes
	// they publish snapshots of; with -state-dir, journal the final state
	// (the followers' last committed offsets) before stopping the keeper.
	// Then release the event indexes — load-time-temporary stores are
	// removed, durable sidecars stay for the next boot to reopen.
	srv.StopFollowers()
	if err := srv.Checkpoint(); err != nil {
		logger.Error("final checkpoint failed", "error", err)
	}
	srv.CloseState()
	if err := srv.Registry().CloseAll(); err != nil {
		logger.Error("closing trace indexes", "error", err)
		os.Exit(1)
	}
	logger.Info("bye")
}
