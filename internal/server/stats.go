package server

import "sync/atomic"

// Stats are the cache's monotonic counters. Hits + Coalesced + Misses is
// the total number of window requests; Derived + Scratch is the number of
// builds actually executed (== Misses once nothing is in flight, minus
// builds abandoned by cancellation). Aborted counts requests dropped on
// cancellation anywhere along the serve path — an expired deadline at
// entry, an abandoned cache fill, or a solve/sweep cut short — i.e. work
// whose response nobody was waiting for anymore. Rejected counts windows
// turned away by the arithmetic admission guard (413) before any build.
// SweepQueries / SweepPs count the multi-p work served through the fused
// engine path (/significant and /quality): queries is the number of sweep
// requests answered, ps the total p points they returned — the ratio is
// the average fan-out a sweep request amortizes over the shared Input.
// ZoomDerived / ZoomScratch split the builds triggered by a resolution
// change (the request's grid level differs from the trace's previous
// request): derived means the ladder had the level warm and the build was
// an incremental Update, scratch means it fell through to the event
// index — the ratio is the ladder's zoom hit rate. Previews counts
// refine requests answered immediately with a coarse covering window
// while the fine build proceeded in the background.
//
// The overload counters: Shed counts requests refused by the build gate
// (503 + Retry-After — the queue was full or the request's deadline was
// shorter than the estimated wait); Degraded counts requests answered
// with the coarse covering preview because the fine build exceeded the
// degrade deadline or died on a retryable fault; Panics counts panics
// recovered anywhere on the serve path (a panicking flight fails all its
// waiters with 500 and increments this once).
type Stats struct {
	Hits         atomic.Int64
	Misses       atomic.Int64
	Coalesced    atomic.Int64
	Derived      atomic.Int64
	Scratch      atomic.Int64
	Evictions    atomic.Int64
	Aborted      atomic.Int64
	Rejected     atomic.Int64
	Shed         atomic.Int64
	Degraded     atomic.Int64
	Panics       atomic.Int64
	ZoomDerived  atomic.Int64
	ZoomScratch  atomic.Int64
	Previews     atomic.Int64
	SweepQueries atomic.Int64
	SweepPs      atomic.Int64

	// Follow-mode ingestion counters: FollowTicks counts ticks that
	// ingested at least one event, FollowEvents the events they carried,
	// FollowReorders the out-of-order batches that forced a generation
	// bump and cache purge (a healthy time-ordered writer keeps this 0).
	FollowTicks    atomic.Int64
	FollowEvents   atomic.Int64
	FollowReorders atomic.Int64
	// FollowRetries counts backoff sleeps on the follow paths: tail-open
	// attempts that found the file missing or its header incomplete, and
	// follower ticks retried after a retryable fault.
	FollowRetries atomic.Int64

	// Durable-state counters (state.go): Checkpoints counts manifest
	// saves, RecoveredOrphans the stale temp/store files swept at boot,
	// Quarantined the corrupt artifacts (manifest or store files) moved
	// aside by recovery and scrub.
	Checkpoints      atomic.Int64
	RecoveredOrphans atomic.Int64
	Quarantined      atomic.Int64
}

// StatsSnapshot is the JSON form served by /debug/cachestats.
type StatsSnapshot struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Coalesced    int64 `json:"coalesced"`
	Derived      int64 `json:"derived_builds"`
	Scratch      int64 `json:"scratch_builds"`
	Evictions    int64 `json:"evictions"`
	Aborted      int64 `json:"aborted"`
	Rejected     int64 `json:"rejected"`
	Shed         int64 `json:"shed"`
	Degraded     int64 `json:"degraded"`
	Panics       int64 `json:"panics"`
	ZoomDerived  int64 `json:"zoom_derived"`
	ZoomScratch  int64 `json:"zoom_scratch"`
	Previews     int64 `json:"previews"`
	SweepQueries int64 `json:"sweep_queries"`
	SweepPs      int64 `json:"sweep_ps"`

	FollowTicks    int64 `json:"follow_ticks"`
	FollowEvents   int64 `json:"follow_events"`
	FollowReorders int64 `json:"follow_reorders"`
	FollowRetries  int64 `json:"follow_retries"`

	Checkpoints      int64 `json:"checkpoints"`
	RecoveredOrphans int64 `json:"recovered_orphans"`
	Quarantined      int64 `json:"quarantined"`
	Entries          int   `json:"entries"`
	Bytes            int64 `json:"bytes"`
	BudgetBytes      int64 `json:"budget_bytes"`
	// The index fields are registry aggregates, filled by
	// Server.CacheStats (not Stats.snapshot): index bytes are the event
	// indexes' fixed residency (RAM arrays or disk chunk directory),
	// open-chunk bytes the disk backends' decoded-chunk caches — both
	// distinct from Bytes (cached Input arenas), so the byte budget and
	// the store never double-count. The chunk counters expose window-read
	// locality: chunks_read is disk fetches, chunk_hits decoded-cache
	// hits.
	IndexBytes          int64 `json:"index_bytes"`
	IndexOpenChunkBytes int64 `json:"index_open_chunk_bytes"`
	IndexChunksRead     int64 `json:"index_chunks_read"`
	IndexChunkHits      int64 `json:"index_chunk_hits"`
	IndexBytesRead      int64 `json:"index_bytes_read"`
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Hits:         s.Hits.Load(),
		Misses:       s.Misses.Load(),
		Coalesced:    s.Coalesced.Load(),
		Derived:      s.Derived.Load(),
		Scratch:      s.Scratch.Load(),
		Evictions:    s.Evictions.Load(),
		Aborted:      s.Aborted.Load(),
		Rejected:     s.Rejected.Load(),
		Shed:         s.Shed.Load(),
		Degraded:     s.Degraded.Load(),
		Panics:       s.Panics.Load(),
		ZoomDerived:  s.ZoomDerived.Load(),
		ZoomScratch:  s.ZoomScratch.Load(),
		Previews:     s.Previews.Load(),
		SweepQueries: s.SweepQueries.Load(),
		SweepPs:      s.SweepPs.Load(),

		FollowTicks:    s.FollowTicks.Load(),
		FollowEvents:   s.FollowEvents.Load(),
		FollowReorders: s.FollowReorders.Load(),
		FollowRetries:  s.FollowRetries.Load(),

		Checkpoints:      s.Checkpoints.Load(),
		RecoveredOrphans: s.RecoveredOrphans.Load(),
		Quarantined:      s.Quarantined.Load(),
	}
}
