package server

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
)

// counters is the serving layer's one counter table: every monotonic
// serve-path counter is declared here once (the gauges and registry
// aggregates once in StatsSnapshot). T is atomic.Int64 in the live Stats
// and int64 in StatsSnapshot, and each field's tags name it everywhere it
// is read: json for /debug/cachestats, prom and help for /metrics (a prom
// name with a ",gauge" suffix is a level, not a count). snapshot and
// writeMetrics walk the fields by reflection in declaration order, so a
// new counter is one tagged field.
type counters[T any] struct {
	// Hits + Coalesced + Misses is the number of window requests; Derived
	// + Scratch the builds executed (== Misses once nothing is in flight,
	// minus builds abandoned by cancellation).
	Hits      T `json:"hits" prom:"ocelotl_cache_hits_total" help:"Window requests served from the exact cached entry."`
	Misses    T `json:"misses" prom:"ocelotl_cache_misses_total" help:"Window requests that started a build flight."`
	Coalesced T `json:"coalesced" prom:"ocelotl_cache_coalesced_total" help:"Requests that piggybacked on an identical in-flight build."`
	Derived   T `json:"derived_builds" prom:"ocelotl_cache_derived_builds_total" help:"Builds served by incremental derivation from a cached neighbor."`
	Scratch   T `json:"scratch_builds" prom:"ocelotl_cache_scratch_builds_total" help:"Builds that went to the event index."`
	Evictions T `json:"evictions" prom:"ocelotl_cache_evictions_total" help:"Entries evicted by the byte budget."`
	// Aborted: requests dropped on cancellation anywhere on the serve
	// path (expired deadline, abandoned fill, solve or sweep cut short).
	Aborted  T `json:"aborted" prom:"ocelotl_cache_aborted_total" help:"Requests abandoned on context cancellation."`
	Rejected T `json:"rejected" prom:"ocelotl_cache_rejected_total" help:"Windows rejected by the admission guard before building (413)."`
	// Overload. Shed: the build gate's queue was full or the deadline
	// shorter than the estimated wait. A panicking flight fails all its
	// waiters with 500 and counts once.
	Shed     T `json:"shed" prom:"ocelotl_shed_total" help:"Requests shed by the build gate (503 + Retry-After)."`
	Degraded T `json:"degraded" prom:"ocelotl_degraded_total" help:"Requests answered with the coarse preview after a slow or faulted fine build."`
	Panics   T `json:"panics" prom:"ocelotl_panics_total" help:"Panics recovered on the serve path (flight builds and handlers)."`
	// ZoomDerived / ZoomScratch split the builds a change of grid level
	// triggered; their ratio is the ladder's zoom hit rate.
	ZoomDerived T `json:"zoom_derived" prom:"ocelotl_zoom_derived_total" help:"Resolution changes served by derivation from the warm ladder level."`
	ZoomScratch T `json:"zoom_scratch" prom:"ocelotl_zoom_scratch_total" help:"Resolution changes that fell through to the event index."`
	Previews    T `json:"previews" prom:"ocelotl_previews_total" help:"Refine requests answered with a coarse covering preview."`
	// SweepPs / SweepQueries is the fan-out a /significant or /quality
	// request amortizes over one Input.
	SweepQueries T `json:"sweep_queries" prom:"ocelotl_sweep_queries_total" help:"Multi-p requests served through the fused sweep path."`
	SweepPs      T `json:"sweep_ps" prom:"ocelotl_sweep_ps_total" help:"Total p points answered by fused sweeps."`
	// Follow-mode ingestion; FollowReorders stays 0 for a time-ordered
	// writer.
	FollowTicks    T `json:"follow_ticks" prom:"ocelotl_follow_ticks_total" help:"Follow-mode ingestion ticks that carried events."`
	FollowEvents   T `json:"follow_events" prom:"ocelotl_follow_events_total" help:"Events ingested by follow-mode ticks."`
	FollowReorders T `json:"follow_reorders" prom:"ocelotl_follow_reorders_total" help:"Out-of-order follow batches that forced a generation bump and cache purge."`
	FollowRetries  T `json:"follow_retries" prom:"ocelotl_follow_retries_total" help:"Backed-off retries on the follow paths (tail opens and failed ticks)."`
	// Durable state (state.go).
	Checkpoints      T `json:"checkpoints" prom:"ocelotl_checkpoints_total" help:"Manifest checkpoints written by the durable-state keeper."`
	RecoveredOrphans T `json:"recovered_orphans" prom:"ocelotl_recovered_orphans_total" help:"Stale temp and unreferenced store files swept at recovery."`
	Quarantined      T `json:"quarantined" prom:"ocelotl_quarantined_total" help:"Corrupt manifests and store files moved aside by recovery and scrub."`
}

// Stats are the cache's live counters; the serve path increments the
// fields in place.
type Stats struct{ counters[atomic.Int64] }

// StatsSnapshot is the JSON form served by /debug/cachestats and the
// source of /metrics: the counters plus the occupancy gauges.
type StatsSnapshot struct {
	counters[int64]
	Entries     int   `json:"entries" prom:"ocelotl_cache_entries,gauge" help:"Cached window Inputs resident now."`
	Bytes       int64 `json:"bytes" prom:"ocelotl_cache_bytes,gauge" help:"Bytes of cached Input arenas resident now."`
	BudgetBytes int64 `json:"budget_bytes" prom:"ocelotl_cache_budget_bytes,gauge" help:"Configured cache byte budget."`
	// IdleScratchBytes is process-wide and outside the budget: the
	// solver scratch kept for reuse between solves (core.IdleScratchBytes).
	IdleScratchBytes int64 `json:"idle_scratch_bytes" prom:"ocelotl_idle_scratch_bytes,gauge" help:"Bytes of idle solver scratch the process keeps for reuse, outside the cache budget."`
	// Registry aggregates, filled by Server.CacheStats; distinct from
	// Bytes, so the cache budget and the index never double-count.
	IndexBytes          int64 `json:"index_bytes" prom:"ocelotl_index_bytes,gauge" help:"Event indexes' fixed residency (RAM arrays or disk chunk directories), distinct from Input bytes."`
	IndexOpenChunkBytes int64 `json:"index_open_chunk_bytes" prom:"ocelotl_index_open_chunk_bytes,gauge" help:"Disk indexes' decoded-chunk cache residency."`
	IndexChunksRead     int64 `json:"index_chunks_read" prom:"ocelotl_index_chunks_read_total" help:"Store chunks fetched and decoded from disk."`
	IndexChunkHits      int64 `json:"index_chunk_hits" prom:"ocelotl_index_chunk_hits_total" help:"Chunk reads served from the decoded-chunk cache."`
	IndexBytesRead      int64 `json:"index_bytes_read" prom:"ocelotl_index_bytes_read_total" help:"Bytes of chunk payload read from disk."`
}

// snapshot loads every live counter into its StatsSnapshot twin.
func (s *Stats) snapshot() StatsSnapshot {
	var out StatsSnapshot
	src := reflect.ValueOf(&s.counters).Elem()
	dst := reflect.ValueOf(&out.counters).Elem()
	for i := range src.NumField() {
		dst.Field(i).SetInt(src.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	return out
}

// handleMetrics serves the snapshot in the Prometheus text exposition
// format (version 0.0.4), written by hand so the daemon stays
// dependency-free while any standard scraper can watch it.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, reflect.ValueOf(s.CacheStats()))
}

// writeMetrics writes a HELP, TYPE and value line per prom-tagged field
// of the struct v, descending into the embedded counter table.
func writeMetrics(w io.Writer, v reflect.Value) {
	for i := range v.NumField() {
		f := v.Type().Field(i)
		if f.Anonymous {
			writeMetrics(w, v.Field(i))
			continue
		}
		name, typ, ok := strings.Cut(f.Tag.Get("prom"), ",")
		if !ok {
			typ = "counter"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, f.Tag.Get("help"), name, typ, name, v.Field(i).Int())
	}
}
