package main

import "time"

// spanMetrics maps span names to the per-layer metric reporting their
// median duration; a layer a workload never calls reports 0.
var spanMetrics = []struct {
	span, metric, unit string
	per                time.Duration
}{
	{"server.admit", "server.admit_us", "us", time.Microsecond},
	{"server.encode", "server.encode_ms", "ms", time.Millisecond},
	{"microscopic.build", "microscopic.build_ms", "ms", time.Millisecond},
	{"microscopic.shift", "microscopic.shift_ms", "ms", time.Millisecond},
	{"microscopic.extend", "microscopic.extend_ms", "ms", time.Millisecond},
	{"core.fill", "core.fill_ms", "ms", time.Millisecond},
	{"core.update", "core.update_ms", "ms", time.Millisecond},
	{"core.advance", "core.advance_ms", "ms", time.Millisecond},
	{"core.solve", "core.solve_ms", "ms", time.Millisecond},
	{"core.sweep", "core.sweep_ms", "ms", time.Millisecond},
	{"core.significant", "core.significant_ms", "ms", time.Millisecond},
	{"core.solver_wait", "core.solver_wait_ms", "ms", time.Millisecond},
	{"traceio.read", "traceio.read_s", "s", time.Second},
	{"traceio.tail", "traceio.tail_ms", "ms", time.Millisecond},
}

// cacheKinds are the build paths whose InputCache.Get latency (the
// daemon's X-Ocelotl-Build-Us) is reported per kind.
var cacheKinds = []string{"hit", "derived", "zoom_derived", "scratch"}

// requestClasses are the classes server.unattributed_frac is split by.
var requestClasses = []string{"hit", "derived", "zoom_derived", "scratch", "quality", "significant", "live", "history"}

// layerMetrics derives the per-layer metrics every workload reports from
// the traced pass's spans and the daemon's counter deltas.
func layerMetrics(tr *Tracer, p *phase) map[string]Metric {
	byName := map[string][]float64{}
	cache := map[string][]float64{}
	// Per request: the summed durations of the layer spans directly under
	// its root (admission, cache lookup, solver wait, kernel, encode).
	layered := make([]time.Duration, len(p.lat))
	for _, s := range tr.Spans() {
		byName[s.Name] = append(byName[s.Name], float64(s.Dur()))
		if s.Name == "cache.get" {
			cache[s.Kind] = append(cache[s.Kind], float64(s.Dur())/float64(time.Millisecond))
		}
		if s.Req >= 0 && s.Req < len(p.reqSpan) && s.Parent == p.reqSpan[s.Req] {
			layered[s.Req] += s.Dur()
		}
	}
	m := map[string]Metric{}
	for _, sm := range spanMetrics {
		m[sm.metric] = Metric{quantile(byName[sm.span], 0.5) / float64(sm.per), sm.unit}
	}
	for _, k := range cacheKinds {
		m["cache."+k+"_ms"] = Metric{quantile(cache[k], 0.5), "ms"}
	}

	total, rest := time.Duration(0), time.Duration(0)
	classTotal, classRest := map[string]time.Duration{}, map[string]time.Duration{}
	for i, lat := range p.lat {
		total += lat
		rest += lat - layered[i]
		classTotal[p.class[i]] += lat
		classRest[p.class[i]] += lat - layered[i]
	}
	m["server.unattributed_frac"] = Metric{frac(rest, total), "frac"}
	for _, c := range requestClasses {
		m["server.unattributed_frac."+c] = Metric{frac(classRest[c], classTotal[c]), "frac"}
	}

	d := func(after, before int64) float64 { return float64(after - before) }
	a, b := p.after, p.before
	lookups := d(a.Hits+a.Misses+a.Coalesced, b.Hits+b.Misses+b.Coalesced)
	chunks := d(a.IndexChunksRead+a.IndexChunkHits, b.IndexChunksRead+b.IndexChunkHits)
	const mb = 1 << 20
	m["server.shed"] = Metric{d(a.Shed, b.Shed), "count"}
	m["server.degraded"] = Metric{d(a.Degraded, b.Degraded), "count"}
	m["cache.hit_ratio"] = Metric{ratio(d(a.Hits, b.Hits), lookups), "frac"}
	m["cache.evictions"] = Metric{d(a.Evictions, b.Evictions), "count"}
	m["cache.bytes_mb"] = Metric{float64(a.Bytes) / mb, "MB"}
	m["microscopic.index_mb"] = Metric{float64(a.IndexBytes) / mb, "MB"}
	m["eventstore.chunks_read"] = Metric{d(a.IndexChunksRead, b.IndexChunksRead), "count"}
	m["eventstore.chunk_hit_ratio"] = Metric{ratio(d(a.IndexChunkHits, b.IndexChunkHits), chunks), "frac"}
	m["eventstore.bytes_read_mb"] = Metric{d(a.IndexBytesRead, b.IndexBytesRead) / mb, "MB"}
	// Workload-specific metrics the replay overrides where they apply.
	m["core.ps_per_s"] = Metric{0, "1/s"}
	for _, k := range []string{"follow.tick_first_ms", "follow.tick_last_ms", "follow.writer_late_ms"} {
		m[k] = Metric{0, "ms"}
	}
	return m
}

func frac(part, whole time.Duration) float64 { return ratio(float64(part), float64(whole)) }

func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
