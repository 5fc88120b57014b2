package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/server"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// followRun is the follow workload: an open-loop writer appends
// time-ordered batches to a binary trace the daemon follows with the
// disk index, while one closed-loop reader alternates live=1 views with
// pans into the history sealed at load.
type followRun struct {
	dir  string
	pl   *Plan
	src  *trace.Trace // the time-sorted trace the writer replays
	d    *daemon
	w    traceio.Writer // positioned after the prefix
	keep *keeper
}

const followFile = "follow.bin"

// followCacheBytes is the follow daemon's Input-cache budget: the reader
// touches only the live window and a few history neighbours, so a
// smaller budget than the default serves the same hits in less memory.
const followCacheBytes = 64 << 20

// followDrain bounds how long after the last batch is due ingestion may
// take to cover it before the missing batches count as lost.
const followDrain = 20 * time.Second

func newFollowRun(dir string, pl *Plan) (*followRun, error) {
	src, err := traceio.ReadFile(filepath.Join(dir, traceFile))
	if err != nil {
		return nil, err
	}
	return &followRun{dir: dir, pl: pl, src: src}, nil
}

func (f *followRun) path() string { return filepath.Join(f.dir, followFile) }

func (f *followRun) indexOptions() microscopic.IndexOptions {
	return microscopic.IndexOptions{Mode: microscopic.IndexDisk, Dir: f.dir}
}

// sliceWidth is the live grid's slice width.
func (f *followRun) sliceWidth() float64 {
	return (f.src.End - f.src.Start) / float64(f.pl.Sizes.Slices*f.pl.Sizes.LiveSpan)
}

// writePrefix (re)creates the followed file holding the events flushed
// before the daemon loads it, and keeps its writer open for the batches.
func (f *followRun) writePrefix() error {
	if f.w != nil {
		f.w.Close()
	}
	w, err := traceio.CreateFile(f.path(), traceio.Header{
		Resources: f.src.Resources, States: f.src.States, Start: f.src.Start, End: f.src.End})
	if err != nil {
		return err
	}
	f.w = w
	for _, ev := range f.src.Events[:f.pl.Prefix] {
		if err := w.WriteEvent(ev); err != nil {
			return err
		}
	}
	return traceio.Flush(w)
}

// setup writes the prefix (input generation, untimed), then times a fresh
// daemon's follow load: prefix ingest into the disk store plus the first
// live build.
func (f *followRun) setup() (time.Duration, []time.Duration, error) {
	if err := f.writePrefix(); err != nil {
		return 0, nil, err
	}
	start := time.Now()
	f.d = startDaemon(server.Config{CacheBytes: followCacheBytes, Index: f.indexOptions()})
	err := f.d.load(map[string]any{"id": traceID, "path": f.path(), "follow": true,
		"poll_ms": f.pl.Sizes.PollMs, "live_slices": f.pl.Sizes.Slices, "slice_width": f.sliceWidth()})
	return time.Since(start), nil, err
}

func (f *followRun) close() {
	if f.d != nil {
		f.d.close()
		f.d = nil
	}
	if f.w != nil {
		f.w.Close()
		f.w = nil
	}
}

func (f *followRun) batch(b int) []trace.Event {
	lo := f.pl.Prefix + b*f.pl.Batch
	return f.src.Events[lo : lo+f.pl.Batch]
}

// measure runs the writer, the lag poller and the reader until the last
// batch is covered by the published horizon (or followDrain passes).
func (f *followRun) measure(tr *Tracer) (*phase, error) {
	sz := f.pl.Sizes
	B := sz.Batches
	p := &phase{before: f.d.srv.CacheStats(), batches: B}
	f.keep = newKeeper(f.pl.Seed, 0)
	interval := time.Duration(sz.IntervalMs * float64(time.Millisecond))
	t0 := time.Now()
	due := make([]time.Time, B)
	maxStart := make([]float64, B)
	for b := range due {
		due[b] = t0.Add(time.Duration(b) * interval)
		ev := f.batch(b)
		maxStart[b] = ev[len(ev)-1].Start
	}

	late := make([]time.Duration, B)
	var flushed atomic.Int64
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() { // open-loop writer
		defer wg.Done()
		for b := 0; b < B; b++ {
			time.Sleep(time.Until(due[b]))
			for _, ev := range f.batch(b) {
				if werr = f.w.WriteEvent(ev); werr != nil {
					return
				}
			}
			if werr = traceio.Flush(f.w); werr != nil {
				return
			}
			late[b] = time.Since(due[b])
			flushed.Store(int64(b + 1))
		}
	}()

	lags := make([]time.Duration, 0, B)
	covered := make(chan struct{})
	wg.Add(1)
	go func() { // lag poller: due flush → published horizon covers it
		defer wg.Done()
		defer close(covered)
		deadline := due[B-1].Add(followDrain)
		for len(lags) < B && time.Now().Before(deadline) {
			if t, ok := f.d.srv.Registry().Get(traceID); ok && t.Info().Follow != nil {
				h := t.Info().Follow.Horizon
				now := time.Now()
				for b := len(lags); b < B && int64(b) < flushed.Load() && maxStart[b] <= h; b++ {
					lags = append(lags, now.Sub(due[b]))
				}
			}
			time.Sleep(lagPoll)
		}
	}()

	ingested := func() bool {
		select {
		case <-covered:
			return true
		default:
			return false
		}
	}
	var buf bytes.Buffer
	reqs := f.pl.Requests
	for i := 0; !ingested(); i++ {
		r := reqs[i%len(reqs)]
		start := time.Now()
		resp, err := f.d.get(r.URL(traceID), &buf)
		if err != nil {
			return nil, fmt.Errorf("reader request %d: %w", i, err)
		}
		p.recordRequest(tr, i%len(reqs), r.Class, start, time.Since(start), resp)
		if r.Class == "history" && resp.ok() {
			f.keep.offer(i, r.Class, resp.body)
		}
	}
	p.elapsed = time.Since(t0)
	wg.Wait()
	if werr != nil {
		return nil, fmt.Errorf("writer: %w", werr)
	}
	p.rssMB = peakRSSMB()
	p.after = f.d.srv.CacheStats()
	p.lags, p.late = lags, late
	p.failed += B - len(lags) // batches never covered are lost
	return p, nil
}

// oracle checks that every written event was ingested exactly once and in
// order, and that the final live view and the kept history views are
// byte-identical to a scratch daemon over the completed file.
func (f *followRun) oracle(p *phase) (checked, failed int, err error) {
	want := int64(f.pl.Sizes.Batches * f.pl.Batch)
	var st server.StatsSnapshot
	for deadline := time.Now().Add(followDrain); ; time.Sleep(5 * time.Millisecond) {
		st = f.d.srv.CacheStats()
		if st.FollowEvents-p.before.FollowEvents >= want || time.Now().After(deadline) {
			break
		}
	}
	check := func(ok bool) {
		checked++
		if !ok {
			failed++
		}
	}
	check(st.FollowEvents-p.before.FollowEvents == want)
	check(st.FollowReorders == p.before.FollowReorders)

	t, ok := f.d.srv.Registry().Get(traceID)
	if !ok || t.Info().Follow == nil {
		return checked, failed + 1, nil
	}
	fi := t.Info().Follow
	var buf bytes.Buffer
	live, err := f.d.get(Request{Endpoint: "aggregate", Live: true, P: 0.5}.URL(traceID), &buf)
	if err != nil {
		return checked, failed, err
	}
	liveBody := bytes.Clone(live.body)

	o := startDaemon(server.Config{CacheBytes: -1, Index: ramIndex()})
	defer o.close()
	if _, err := o.loadBatch(f.path()); err != nil {
		return checked, failed, err
	}
	scratch, err := o.get(Request{Endpoint: "aggregate", Lo: fi.Lo, Hi: fi.Hi, Slices: fi.Slices, Pan: fi.Pan, P: 0.5}.URL(traceID), &buf)
	if err != nil {
		return checked, failed, err
	}
	check(live.ok() && scratch.ok() && bytes.Equal(liveBody, scratch.body))

	idx := make([]int, 0, len(f.keep.bodies))
	for i := range f.keep.bodies {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		resp, err := o.get(f.pl.Requests[i%len(f.pl.Requests)].URL(traceID), &buf)
		if err != nil {
			return checked, failed, err
		}
		check(resp.ok() && bytes.Equal(resp.body, f.keep.bodies[i]))
	}
	return checked, failed, nil
}

// sealedPan mirrors the daemon's live-window rule: the pan of the live
// window whose end is the last slice boundary at or below horizon.
func sealedPan(anchor timeslice.Slicer, horizon float64) int {
	e := max(0, int(math.Floor((horizon-anchor.Start)/anchor.Width())))
	pan := e - anchor.N
	for pan > -anchor.N && anchor.Shift(pan).End > horizon {
		pan--
	}
	for anchor.Shift(pan+1).End <= horizon {
		pan++
	}
	return pan
}

// prefixSource feeds the prefix events to the indexed constructor with
// the ingested horizon as the window end, as a follow load does.
type prefixSource struct {
	tr         *trace.Trace
	start, end float64
	events     []trace.Event
}

func (s *prefixSource) Resources() []string        { return s.tr.Resources }
func (s *prefixSource) States() []string           { return s.tr.States }
func (s *prefixSource) Window() (float64, float64) { return s.start, s.end }
func (s *prefixSource) Next(ev *trace.Event) error {
	if len(s.events) == 0 {
		return io.EOF
	}
	*ev, s.events = s.events[0], s.events[1:]
	return nil
}

// replay re-runs the ingestion of the same batches — TailReader.Next per
// batch, Reslicer.Extend, Input.AdvanceContext — over a disk index of the
// same prefix, then the reader's requests on the final snapshot.
func (f *followRun) replay(tr *Tracer, p *phase) (map[string]Metric, error) {
	sz := f.pl.Sizes
	ctx := context.Background()
	tail, err := traceio.OpenTail(f.path())
	if err != nil {
		return nil, err
	}
	defer tail.Close()
	prefix := make([]trace.Event, f.pl.Prefix)
	for i := range prefix {
		if err := tail.Next(&prefix[i]); err != nil {
			return nil, err
		}
	}
	horizon := prefix[len(prefix)-1].Start
	resl, err := microscopic.NewReslicerIndexed(&prefixSource{tr: f.src, start: f.src.Start, end: horizon, events: prefix}, f.indexOptions())
	if err != nil {
		return nil, err
	}
	sh, err := newShadow(tr, resl, f.path())
	if err != nil {
		resl.Close()
		return nil, err
	}
	defer func() { sh.resl.Close() }()
	anchor, err := timeslice.New(f.src.Start, f.src.Start+float64(sz.Slices)*f.sliceWidth(), sz.Slices)
	if err != nil {
		return nil, err
	}
	pan := sealedPan(anchor, horizon)
	live, err := sh.scratch(-1, 0, anchor.Shift(pan), true)
	if err != nil {
		return nil, err
	}

	tick := make([]time.Duration, sz.Batches)
	batch := make([]trace.Event, f.pl.Batch)
	for b := range tick {
		tid := tr.Begin("follow.tick", 0, b)
		if _, err := tr.Time("traceio.tail", tid, b, func() error {
			for j := range batch {
				if err := tail.Next(&batch[j]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		horizon = max(horizon, batch[len(batch)-1].Start)
		start := time.Now()
		if _, err := tr.Time("microscopic.extend", tid, b, func() (err error) {
			sh.resl, err = sh.resl.Extend(batch, horizon)
			return err
		}); err != nil {
			return nil, err
		}
		if k := sealedPan(anchor, horizon) - pan; k > 0 {
			if _, err := tr.Time("core.advance", tid, b, func() (err error) {
				live, err = live.AdvanceContext(ctx, sh.resl, k)
				return err
			}); err != nil {
				return nil, err
			}
			pan += k
		}
		tick[b] = time.Since(start)
		tr.End(tid)
	}

	for i, pi := range p.plan {
		r := f.pl.Requests[pi]
		rid := p.reqSpan[i]
		in, sl, want := live, live.Model.Slicer, (*uint32)(nil)
		if !r.Live {
			if sl, err = r.Window(); err != nil {
				return nil, err
			}
			want = &p.crc[i]
		}
		if err := sh.doAdmit(i, rid, sl); err != nil {
			return nil, err
		}
		if !r.Live {
			if in, err = sh.input(i, rid+1, sl, p.kind[i]); err != nil {
				return nil, err
			}
		}
		if err := sh.aggregate(i, rid, in, r.P, want); err != nil {
			return nil, err
		}
	}

	tenth := max(1, len(tick)/10)
	return map[string]Metric{
		"trace.replay_mismatch": {float64(sh.mismatches), "count"},
		"follow.tick_first_ms":  {quantile(msAll(tick[:tenth]), 0.5), "ms"},
		"follow.tick_last_ms":   {quantile(msAll(tick[len(tick)-tenth:]), 0.5), "ms"},
		"follow.writer_late_ms": {quantile(msAll(p.late), 0.5), "ms"},
	}, nil
}
