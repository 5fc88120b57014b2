package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/server"
	"ocelotl/internal/traceio"
)

// batchRun holds what explore and sweep share: a complete trace file
// loaded with the RAM index into a daemon with the default cache budget.
type batchRun struct {
	dir  string
	pl   *Plan
	d    *daemon
	keep *keeper
}

func (b *batchRun) tracePath() string { return filepath.Join(b.dir, traceFile) }

func ramIndex() microscopic.IndexOptions {
	return microscopic.IndexOptions{Mode: microscopic.IndexRAM}
}

// setup starts a fresh daemon, loads the trace and sends the plan's
// warm-up requests.
func (b *batchRun) setup() (time.Duration, []time.Duration, error) {
	start := time.Now()
	b.d = startDaemon(server.Config{Index: ramIndex()})
	lag, err := b.d.loadBatch(b.tracePath())
	if err != nil {
		return 0, nil, err
	}
	var buf bytes.Buffer
	for _, r := range b.pl.Warm {
		resp, err := b.d.get(r.URL(traceID), &buf)
		if err != nil {
			return 0, nil, err
		}
		if !resp.ok() {
			return 0, nil, fmt.Errorf("warm-up %s: status %d %s", r.URL(traceID), resp.status, resp.body)
		}
	}
	return time.Since(start), []time.Duration{lag}, nil
}

func (b *batchRun) close() {
	if b.d != nil {
		b.d.close()
		b.d = nil
	}
}

// newShadow opens the replay's own RAM index over the trace file and
// replays the warm-up builds as set-up spans.
func (b *batchRun) newShadow(tr *Tracer) (*shadow, error) {
	src, err := traceio.OpenFile(b.tracePath())
	if err != nil {
		return nil, err
	}
	defer src.Close()
	resl, err := microscopic.NewReslicerIndexed(src, ramIndex())
	if err != nil {
		return nil, err
	}
	sh, err := newShadow(tr, resl, b.tracePath())
	if err != nil {
		return nil, err
	}
	for _, r := range b.pl.Warm {
		sl, err := r.Window()
		if err != nil {
			return nil, err
		}
		if _, err := sh.scratch(-1, 0, sl, true); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// exploreRun is the explore workload: one closed-loop client walking
// /aggregate views (see walker).
type exploreRun struct{ batchRun }

func (e *exploreRun) measure(tr *Tracer) (*phase, error) {
	e.keep = newKeeper(e.pl.Seed, len(e.pl.Requests))
	prev := e.pl.Warm[len(e.pl.Warm)-1].Level
	return runClosed(e.d, e.pl.Requests, tr, e.keep, func(i int, resp response) string {
		level := e.pl.Requests[i].Level
		zoom := level != prev
		prev = level
		if resp.kind == "derived" && zoom {
			return "zoom_derived"
		}
		return resp.kind
	})
}

// oracle re-requests the kept bodies from a cache-disabled daemon over
// the same trace — every request a scratch build — and counts bodies that
// differ by a single byte.
func (e *exploreRun) oracle(*phase) (checked, failed int, err error) {
	o := startDaemon(server.Config{CacheBytes: -1, Index: ramIndex()})
	defer o.close()
	if _, err := o.loadBatch(e.tracePath()); err != nil {
		return 0, 0, err
	}
	idx := make([]int, 0, len(e.keep.bodies))
	for i := range e.keep.bodies {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var buf bytes.Buffer
	for _, i := range idx {
		resp, err := o.get(e.pl.Requests[i].URL(traceID), &buf)
		if err != nil {
			return checked, failed, err
		}
		checked++
		if !resp.ok() || !bytes.Equal(resp.body, e.keep.bodies[i]) {
			failed++
		}
	}
	return checked, failed, nil
}

func (e *exploreRun) replay(tr *Tracer, p *phase) (map[string]Metric, error) {
	sh, err := e.newShadow(tr)
	if err != nil {
		return nil, err
	}
	for i, pi := range p.plan {
		r := e.pl.Requests[pi]
		sl, err := r.Window()
		if err != nil {
			return nil, err
		}
		rid := p.reqSpan[i]
		if err := sh.doAdmit(i, rid, sl); err != nil {
			return nil, err
		}
		in, err := sh.input(i, rid+1, sl, p.class[i])
		if err != nil {
			return nil, err
		}
		if err := sh.aggregate(i, rid, in, r.P, &p.crc[i]); err != nil {
			return nil, err
		}
	}
	return map[string]Metric{"trace.replay_mismatch": {float64(sh.mismatches), "count"}}, nil
}
