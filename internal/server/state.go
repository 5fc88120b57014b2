package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ocelotl/internal/eventstore"
	"ocelotl/internal/failpoint"
	"ocelotl/internal/live"
	"ocelotl/internal/manifest"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
)

// Durable daemon state. With Config.StateDir set, the server journals its
// serving state — which traces are loaded, where their sealed index
// stores live, and each follower's committed resume offset — into a CRC'd
// manifest (internal/manifest) written atomically on every load, unload
// and every CheckpointTicks poll intervals that carried events. Recover replays the manifest on
// boot: sealed stores are reopened in place instead of re-indexed,
// followers resume their tail at the journaled byte offset
// (live.Resume), and anything the manifest doesn't vouch for —
// spill temps, half-built stores, stores from unloaded traces — is swept.
// The contract is the one the follow tests pin end to end: after a kill
// -9 and restart, responses are bit-identical to an uninterrupted run and
// no flushed event is lost or double-ingested.
//
// Checkpoints are written by a dedicated keeper goroutine; the follow
// tick only drops a non-blocking kick on it, so journaling never sits on
// the ingestion hot path. Load/unload checkpoint synchronously — the
// manifest is durable before the client sees the 2xx.

// FailpointRecoverOpen names the fault-injection site at the head of each
// journaled trace's recovery. An armed error simulates a store that
// cannot be reopened: recovery falls back to rebuilding the index from
// the trace file (or restarting the follow fresh) instead of skipping the
// trace, so chaos at boot degrades to extra work, not data loss.
const FailpointRecoverOpen = "recover/open"

// DefaultCheckpointTicks is how many event-carrying follow ticks, at
// most one per poll interval, elapse between periodic checkpoints when
// Config.CheckpointTicks is 0. Each tick advances the journaled resume
// offset; more frequent checkpoints shrink the prefix a restart replays,
// at the price of more manifest writes.
const DefaultCheckpointTicks = 50

// stateKeeper owns the manifest journal: one goroutine drains kicks and
// writes checkpoints, and mu serializes its Saves with the synchronous
// ones (load/unload/shutdown).
type stateKeeper struct {
	j *manifest.Journal

	mu  sync.Mutex // serializes Save and the seq counter
	seq uint64

	kick chan struct{} // capacity 1: coalesces pending checkpoint requests
	stop chan struct{}
	done chan struct{}

	stopOnce sync.Once
}

// RecoveryReport summarizes what Recover found and did.
type RecoveryReport struct {
	// ManifestSeq is the recovered manifest's checkpoint sequence (0 when
	// booting fresh); ManifestCorrupt reports that the manifest existed
	// but failed validation and was quarantined (FileName + ".corrupt").
	ManifestSeq     uint64 `json:"manifest_seq"`
	ManifestCorrupt bool   `json:"manifest_corrupt"`
	// Restored counts journaled traces serving again, split into how:
	// Reopened sealed stores, Rebuilt indexes re-streamed from the trace
	// file, Resumed followers continuing at the journaled offset, and
	// Restarted followers that fell back to a fresh follow.
	Restored  int `json:"restored"`
	Reopened  int `json:"reopened"`
	Rebuilt   int `json:"rebuilt"`
	Resumed   int `json:"resumed"`
	Restarted int `json:"restarted"`
	// Orphans counts swept files: spill temps, abandoned build temps, and
	// store files no journaled trace references.
	Orphans int `json:"orphans"`
	// Skipped lists traces that could not be restored by any path (their
	// trace file is gone or unreadable); the daemon serves without them.
	Skipped []string `json:"skipped,omitempty"`
}

// ScrubReport summarizes a consistency pass over the daemon's durable
// state (Scrub for a live server, ScrubState offline).
type ScrubReport struct {
	Traces      int  `json:"traces"`
	Chunks      int  `json:"chunks_verified"`
	Quarantined int  `json:"quarantined"`
	Rebuilt     int  `json:"rebuilt"`
	ManifestOK  bool `json:"manifest_ok"`
	// Errors lists every inconsistency found, rebuilt or not; Clean is
	// len(Errors) == 0 && ManifestOK.
	Errors []string `json:"errors,omitempty"`
	Clean  bool     `json:"clean"`
}

// Recover loads the manifest from Config.StateDir, sweeps orphaned files,
// re-registers every journaled trace (reopening sealed stores in place,
// resuming followers at their committed offsets), and starts the
// checkpoint keeper. It must be called once, before the handler starts
// serving and before any preload. A fresh state directory recovers to an
// empty registry — not an error.
func (s *Server) Recover(ctx context.Context) (*RecoveryReport, error) {
	if s.stateDir == "" {
		return nil, fmt.Errorf("server: recover: no state directory configured")
	}
	if s.state != nil {
		return nil, fmt.Errorf("server: recover: state already recovered")
	}
	j, err := manifest.Open(s.stateDir)
	if err != nil {
		return nil, err
	}
	if dir := s.reg.indexOpts.Dir; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: store dir: %w", err)
		}
	}
	report := &RecoveryReport{}
	m, err := j.Load()
	if err != nil {
		if !manifest.IsCorrupt(err) {
			return nil, err
		}
		// A corrupt manifest is "no usable manifest": preserve it for
		// inspection and boot empty rather than refuse to serve.
		s.log.Error("manifest corrupt; quarantining and starting empty", "error", err)
		if _, qerr := j.Quarantine(); qerr != nil {
			return nil, qerr
		}
		s.cache.stats.Quarantined.Add(1)
		report.ManifestCorrupt = true
		m = nil
	}
	k := &stateKeeper{
		j:    j,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if m != nil {
		k.seq = m.Seq
		report.ManifestSeq = m.Seq
	}
	// Publish the keeper before any follower goroutine starts: resumed
	// followers read s.state on their tick path.
	s.state = k
	go s.runStateKeeper(k)

	referenced := make(map[string]bool)
	if m != nil {
		for _, ts := range m.Traces {
			if ts.Store != "" {
				referenced[filepath.Clean(ts.Store)] = true
			}
		}
	}
	report.Orphans = s.sweepOrphans(referenced)

	if m != nil {
		for _, ts := range m.Traces {
			if err := s.recoverTrace(ctx, ts, report); err != nil {
				s.log.Error("trace not recovered", "trace", ts.ID, "error", err)
				report.Skipped = append(report.Skipped, ts.ID)
			} else {
				report.Restored++
			}
			// Keep the generation counter past every journaled gen, so new
			// lineages can never collide with journaled cache keys.
			s.reg.bumpGen(ts.Gen)
		}
	}
	// Seal recovery with a fresh checkpoint: the manifest now reflects
	// what is actually serving (skipped traces drop out, restarted
	// followers get their new lineage).
	if err := s.Checkpoint(); err != nil {
		s.log.Warn("post-recovery checkpoint failed", "error", err)
	}
	return report, nil
}

// recoverTrace restores one journaled trace by the cheapest path that
// works: reopen the sealed store, else rebuild from the trace file;
// resume the follower at its committed offset, else restart the follow
// fresh. The armed recover/open failpoint forces the fallback path.
func (s *Server) recoverTrace(ctx context.Context, ts manifest.TraceState, report *RecoveryReport) error {
	injected := failpoint.Inject(FailpointRecoverOpen)
	if ts.Follow != nil {
		if injected == nil {
			if _, err := s.resumeFollow(ctx, ts); err == nil {
				report.Resumed++
				return nil
			} else {
				s.log.Warn("follow resume failed; restarting fresh", "trace", ts.ID, "error", err)
			}
		} else {
			s.log.Warn("recover/open failpoint: restarting follow fresh", "trace", ts.ID, "error", injected)
		}
		// Fresh follow: re-ingest the whole file. Slower than a resume but
		// still lossless, and the journaled anchor width keeps the grid.
		req := loadRequest{ID: ts.ID, Path: ts.Path, Follow: true, PollMs: ts.Follow.PollMs, LiveSlices: ts.Follow.Slices}
		if ts.Follow.Slices > 0 {
			req.SliceWidth = (ts.Follow.AnchorHi - ts.Follow.AnchorLo) / float64(ts.Follow.Slices)
		}
		if _, err := s.startFollow(ctx, req); err != nil {
			return err
		}
		report.Restarted++
		return nil
	}
	var resl *microscopic.Reslicer
	var err error
	if injected != nil {
		s.log.Warn("recover/open failpoint: rebuilding from trace", "trace", ts.ID, "error", injected)
	} else if ts.Store != "" {
		if resl, err = microscopic.OpenReslicerStore(ts.Store, s.reg.indexOpts); eventstore.IsCorrupt(err) {
			s.log.Error("journaled store corrupt; rebuilding from trace", "trace", ts.ID, "store", ts.Store, "error", err)
			s.quarantineStore(ts.Store)
		} else if err != nil {
			s.log.Warn("journaled store unreadable; rebuilding from trace", "trace", ts.ID, "store", ts.Store, "error", err)
		}
	}
	rebuilt := resl == nil
	if rebuilt {
		if resl, err = s.reg.indexFile(ts.Path); err != nil {
			return err
		}
	}
	if _, err := s.reg.register(&Trace{ID: ts.ID, Path: ts.Path, resl: resl, gen: ts.Gen}); err != nil {
		resl.Close()
		return err
	}
	if rebuilt {
		report.Rebuilt++
	} else {
		report.Reopened++
	}
	return nil
}

// resumeFollow restores a journaled follower at its committed offset
// with zero loss and zero re-ingestion drift (live.Resume). A file that
// no longer matches the journal is an error; the caller falls back to a
// fresh follow.
func (s *Server) resumeFollow(ctx context.Context, ts manifest.TraceState) (*Trace, error) {
	fs := ts.Follow
	anchor, err := timeslice.New(fs.AnchorLo, fs.AnchorHi, fs.Slices)
	if err != nil {
		return nil, fmt.Errorf("journaled anchor: %w", err)
	}
	poll, err := pollInterval(fs.PollMs)
	if err != nil {
		return nil, err
	}
	eng, err := live.Resume(ctx, ts.Path, fs.Offset, fs.Horizon, anchor, live.Options{Index: s.reg.indexOpts, Input: s.cache.opts})
	if err != nil {
		return nil, err
	}
	tr, err := s.bootFollower(ts.ID, ts.Path, ts.Gen, fs.Ticks, poll, eng)
	if err != nil {
		return nil, err
	}
	s.log.Info("follow resumed", "trace", ts.ID, "path", ts.Path,
		"offset", fs.Offset, "events", tr.Events, "horizon", fs.Horizon)
	return tr, nil
}

// sweepOrphans removes files in the store directory that no journaled
// trace references: spill runs and build temps from interrupted index
// builds, and store files whose trace was unloaded (or followed — follow
// stores are never journaled) before the crash.
func (s *Server) sweepOrphans(referenced map[string]bool) int {
	dir := s.reg.indexOpts.Dir
	if dir == "" {
		return 0
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.log.Warn("orphan sweep: reading store dir", "dir", dir, "error", err)
		return 0
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		full := filepath.Join(dir, name)
		isTemp := strings.HasPrefix(name, ".oces-run-") || strings.HasPrefix(name, ".oces-build-")
		isStore := strings.HasPrefix(name, "ocelotl-index-") && strings.HasSuffix(name, ".oces")
		if !isTemp && !(isStore && !referenced[filepath.Clean(full)]) {
			continue
		}
		if err := os.Remove(full); err != nil {
			s.log.Warn("orphan sweep: remove", "file", full, "error", err)
			continue
		}
		s.log.Info("orphan swept", "file", full)
		n++
	}
	if n > 0 {
		s.cache.stats.RecoveredOrphans.Add(int64(n))
		if err := manifest.SyncDir(dir); err != nil {
			s.log.Warn("orphan sweep: sync dir", "error", err)
		}
	}
	return n
}

// quarantineStore moves a corrupt store aside (path + ".quarantined") so
// it is preserved for inspection but can never be reopened as live state.
func (s *Server) quarantineStore(path string) {
	dst := path + ".quarantined"
	if err := os.Rename(path, dst); err != nil {
		s.log.Warn("store quarantine failed", "store", path, "error", err)
		return
	}
	if err := manifest.SyncDir(filepath.Dir(path)); err != nil {
		s.log.Warn("store quarantine: sync dir", "error", err)
	}
	s.cache.stats.Quarantined.Add(1)
	s.log.Error("store quarantined", "store", path, "moved_to", dst)
}

// snapshotManifest captures the registry as a Manifest. Traces loaded
// from memory (no source path) cannot be recovered and are not journaled.
// Follow traces journal no store: their sealed store holds only the
// load-time prefix, so recovery rebuilds the index from the trace file's
// committed prefix instead.
func (s *Server) snapshotManifest() *manifest.Manifest {
	m := &manifest.Manifest{}
	for _, t := range s.reg.snapshot() {
		if t.Path == "" {
			continue
		}
		ts := manifest.TraceState{ID: t.ID, Path: t.Path, Index: t.resl.IndexKind(), Gen: t.gen}
		if fs := t.follow; fs != nil {
			ts.Follow = &manifest.FollowState{
				Offset:   fs.offset,
				AnchorLo: fs.anchor.Start,
				AnchorHi: fs.anchor.End,
				Slices:   fs.anchor.N,
				Pan:      fs.pan,
				Horizon:  fs.horizon,
				Ticks:    fs.ticks,
				PollMs:   int(fs.poll / time.Millisecond),
			}
		} else {
			ts.Store = t.resl.StorePath()
		}
		m.Traces = append(m.Traces, ts)
	}
	sort.Slice(m.Traces, func(i, j int) bool { return m.Traces[i].ID < m.Traces[j].ID })
	return m
}

// Checkpoint synchronously writes the current serving state to the
// manifest. A no-op (nil) when durable state is disabled.
func (s *Server) Checkpoint() error {
	k := s.state
	if k == nil {
		return nil
	}
	m := s.snapshotManifest()
	k.mu.Lock()
	defer k.mu.Unlock()
	k.seq++
	m.Seq = k.seq
	if err := k.j.Save(m); err != nil {
		k.seq--
		return err
	}
	s.cache.stats.Checkpoints.Add(1)
	return nil
}

// requestCheckpoint asks the keeper for a checkpoint without blocking —
// the follow tick's path. A kick already pending coalesces.
func (s *Server) requestCheckpoint() {
	k := s.state
	if k == nil {
		return
	}
	select {
	case k.kick <- struct{}{}:
	default:
	}
}

// runStateKeeper drains checkpoint kicks until CloseState.
func (s *Server) runStateKeeper(k *stateKeeper) {
	defer close(k.done)
	for {
		select {
		case <-k.stop:
			return
		case <-k.kick:
			if err := s.Checkpoint(); err != nil {
				s.log.Warn("checkpoint failed", "error", err)
			}
		}
	}
}

// CloseState stops the checkpoint keeper without writing a final
// checkpoint — the daemon calls Checkpoint explicitly before this on a
// clean shutdown, and tests skip it to simulate a crash. Idempotent.
func (s *Server) CloseState() {
	k := s.state
	if k == nil {
		return
	}
	k.stopOnce.Do(func() { close(k.stop) })
	<-k.done
}

// Scrub verifies the live server's durable state: every disk-backed
// index's chunks are re-read from disk and CRC-checked, and the manifest
// is re-validated. A corrupt non-follow store is quarantined and its
// index rebuilt from the trace file under a fresh generation (the
// unload/reload consistency path); a corrupt follow index is reported
// only — its authoritative bytes are still in the tailed file. Served at
// GET /debug/scrub.
func (s *Server) Scrub() *ScrubReport {
	rep := &ScrubReport{ManifestOK: true}
	for _, t := range s.reg.snapshot() {
		rep.Traces++
		n, err := t.resl.VerifyIndex()
		rep.Chunks += n
		if err == nil {
			continue
		}
		rep.Errors = append(rep.Errors, fmt.Sprintf("trace %s: %v", t.ID, err))
		if t.follow != nil || t.Path == "" || !eventstore.IsCorrupt(err) {
			continue
		}
		if s.rebuildTrace(t) {
			rep.Quarantined++
			rep.Rebuilt++
		}
	}
	if k := s.state; k != nil {
		// Read-only load: the keeper may be writing concurrently, and the
		// atomic rename guarantees we see a complete manifest either way.
		if _, err := k.j.Load(); err != nil {
			rep.ManifestOK = false
			rep.Errors = append(rep.Errors, fmt.Sprintf("manifest: %v", err))
			// The registry is intact, so a fresh checkpoint rewrites the
			// damaged manifest in place.
			if cerr := s.Checkpoint(); cerr == nil {
				rep.Errors = append(rep.Errors, "manifest: rewritten from the live registry")
			}
		}
	}
	rep.Clean = rep.ManifestOK && len(rep.Errors) == 0
	return rep
}

// rebuildTrace replaces a trace whose store failed verification: a fresh
// index is streamed from the trace file, swapped in under a new
// generation, the stale cache lineage purged, and the damaged store
// quarantined. Reports whether the swap happened (a concurrent unload or
// reload wins the race and makes the rebuild moot).
func (s *Server) rebuildTrace(old *Trace) bool {
	resl, err := s.reg.indexFile(old.Path)
	if err != nil {
		s.log.Error("scrub rebuild failed", "trace", old.ID, "error", err)
		return false
	}
	nw := &Trace{ID: old.ID, Path: old.Path, Events: resl.NumEvents(),
		LoadedAt: old.LoadedAt, resl: resl, gen: s.reg.gen.Add(1)}
	if !s.reg.swap(old, nw) {
		resl.Close()
		return false
	}
	s.cache.PurgeTrace(old.ID, old.gen)
	storePath := old.resl.StorePath()
	if err := old.resl.Close(); err != nil {
		s.log.Warn("scrub rebuild: closing old index", "trace", old.ID, "error", err)
	}
	if storePath != "" {
		s.quarantineStore(storePath)
	}
	s.requestCheckpoint()
	s.log.Info("scrub rebuilt trace", "trace", old.ID, "events", nw.Events)
	return true
}

// handleScrub serves GET /debug/scrub.
func (s *Server) handleScrub(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Scrub())
}

// ScrubState verifies a state directory offline (ocelotld -scrub): the
// manifest decodes and every journaled store's chunks pass their CRCs.
// Nothing is repaired or removed — it is a read-only health check safe to
// run beside a live daemon (LoadFile does not sweep temps, and stores
// open without RemoveOnClose).
func ScrubState(dir string) (*ScrubReport, error) {
	rep := &ScrubReport{ManifestOK: true}
	m, err := manifest.LoadFile(filepath.Join(dir, manifest.FileName))
	if err != nil {
		rep.ManifestOK = false
		rep.Errors = append(rep.Errors, fmt.Sprintf("manifest: %v", err))
	}
	if m != nil {
		for _, ts := range m.Traces {
			rep.Traces++
			if ts.Path != "" {
				if _, err := os.Stat(ts.Path); err != nil {
					rep.Errors = append(rep.Errors, fmt.Sprintf("trace %s: source: %v", ts.ID, err))
				}
			}
			if ts.Store == "" {
				continue
			}
			st, err := eventstore.Open(ts.Store, eventstore.Options{})
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("trace %s: store: %v", ts.ID, err))
				continue
			}
			n, err := st.VerifyChunks()
			rep.Chunks += n
			if err != nil {
				rep.Errors = append(rep.Errors, fmt.Sprintf("trace %s: store: %v", ts.ID, err))
			}
			st.Close()
		}
	}
	rep.Clean = rep.ManifestOK && len(rep.Errors) == 0
	return rep, nil
}
