package live

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/eventstore"
	"ocelotl/internal/failpoint"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/testutil"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// scanPan is SealedPan's definition walked one slice at a time.
func scanPan(anchor timeslice.Slicer, horizon float64) int {
	pan := -anchor.N
	for anchor.Shift(pan+1).End <= horizon {
		pan++
	}
	return pan
}

// TestSealedPanMatchesScan: the binary search lands on the same pan as a
// linear walk over the grid, for horizons before, on and between
// boundaries.
func TestSealedPanMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		start := rng.Float64()*200 - 100
		n := 1 + rng.Intn(40)
		anchor, err := timeslice.New(start, start+rng.Float64()*50+1e-3, n)
		if err != nil {
			t.Fatal(err)
		}
		horizon := start + (rng.Float64()*300-10)*anchor.Width()
		if rng.Intn(4) == 0 { // exactly on a boundary
			horizon = anchor.Shift(rng.Intn(300) - n).End
		}
		got, err := SealedPan(anchor, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if want := scanPan(anchor, horizon); got != want {
			t.Fatalf("anchor %+v horizon %v: pan %d, scan says %d", anchor, horizon, got, want)
		}
	}
}

// TestSealedPanFarHorizon: a horizon past the representable grid is an
// ErrHorizon (and a terminal error), returned at once; one just inside it
// still gets its exact sealed window.
func TestSealedPanFarHorizon(t *testing.T) {
	anchor, err := timeslice.New(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{1e19, 1e300, math.MaxFloat64, math.Inf(1)} {
		if _, err := SealedPan(anchor, h); !errors.Is(err, ErrHorizon) || !Terminal(err) {
			t.Errorf("horizon %v: err %v, want a terminal ErrHorizon", h, err)
		}
	}
	h := 1e15 + 0.5
	pan, err := SealedPan(anchor, h)
	if err != nil {
		t.Fatal(err)
	}
	if end, next := anchor.Shift(pan).End, anchor.Shift(pan+1).End; end > h || next <= h {
		t.Fatalf("horizon %v: window ends at %v, next boundary %v", h, end, next)
	}
}

// events returns n time-ordered events 0.02 apart over three resources.
func events(from, n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		s := float64(from+i) * 0.02
		evs[i] = trace.Event{Resource: trace.ResourceID(i % 3), State: trace.StateID(i % 2), Start: s, End: s + 0.05}
	}
	return evs
}

var header = traceio.Header{Resources: []string{"A/a0", "A/a1", "B/b0"},
	States: []string{"run", "wait"}, Start: 0, End: 10}

// appendFlushed writes evs to w and flushes them to the file.
func appendFlushed(t *testing.T, w traceio.Writer, evs []trace.Event) {
	t.Helper()
	for _, e := range evs {
		if err := w.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := traceio.Flush(w); err != nil {
		t.Fatal(err)
	}
}

// requireScratch checks f's live Input against a scratch build over all
// of evs at the same window.
func requireScratch(t *testing.T, f *Follower, evs []trace.Event) {
	t.Helper()
	r, err := microscopic.NewReslicer(&trace.Trace{Resources: header.Resources, States: header.States, Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.BuildAt(f.Anchor().Shift(f.Pan()))
	if err != nil {
		t.Fatal(err)
	}
	got := f.Live().Model
	for x := 0; x < m.NumStates(); x++ {
		g, w := got.StateRow(x), m.StateRow(x)
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("d_%d cell %d: live %v, scratch %v", x, i, g[i], w[i])
			}
		}
	}
	want, err := core.NewInputContext(context.Background(), m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := f.Live().NewSolver().RunContext(context.Background(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := want.NewSolver().RunContext(context.Background(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Gain != pw.Gain || pg.Loss != pw.Loss || len(pg.Areas) != len(pw.Areas) {
		t.Fatalf("live partition (%v, %v, %d areas) differs from scratch (%v, %v, %d areas)",
			pg.Gain, pg.Loss, len(pg.Areas), pw.Gain, pw.Loss, len(pw.Areas))
	}
}

// TestTickCommitsOnlyOnSuccess follows a disk-indexed trace whose advance
// fails on a store read after the tick's Extend succeeded: the Follower
// must come out of the failed Tick unchanged, and the retry must ingest
// the same batch and land bit-identical to a scratch build.
func TestTickCommitsOnlyOnSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.bin")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	w, err := traceio.NewWriter(file, traceio.FormatBinary, header)
	if err != nil {
		t.Fatal(err)
	}
	all := events(0, 400)
	appendFlushed(t, w, all[:250])

	tail, err := traceio.OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Start(context.Background(), tail, 10, 0, Options{Index: microscopic.IndexOptions{
		Mode: microscopic.IndexDisk, Dir: dir, Store: eventstore.Options{ChunkCacheBytes: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		f.Close()
		f.Reslicer().Close()
	}()
	requireScratch(t, f, all[:250])

	// The batch moves the window end from 4 to 7: the advance fills the
	// new slices from the store, and that read fails once.
	appendFlushed(t, w, all[250:])
	pan, horizon, offset, resl := f.Pan(), f.Horizon(), f.Offset(), f.Reslicer()
	if err := failpoint.Enable(eventstore.FailpointRead, "1*error(chaos)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	if _, err := f.Tick(context.Background()); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Tick with a failing store read: err %v, want the injected error", err)
	}
	if f.Pan() != pan || f.Horizon() != horizon || f.Offset() != offset || f.Reslicer() != resl {
		t.Fatalf("failed Tick committed: pan %d→%d, horizon %v→%v, offset %d→%d",
			pan, f.Pan(), horizon, f.Horizon(), offset, f.Offset())
	}

	b, err := f.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if b.Events != 150 || b.Reorder || b.Advanced != 3 {
		t.Fatalf("retried Tick: %+v, want 150 events advancing 3 slices in order", b)
	}
	if f.Reslicer().NumEvents() != len(all) {
		t.Fatalf("%d events indexed, want %d", f.Reslicer().NumEvents(), len(all))
	}
	requireScratch(t, f, all)

	// An out-of-order batch rebuilds and still matches scratch.
	late := []trace.Event{{Resource: 2, State: 1, Start: 4.5, End: 5.5}}
	appendFlushed(t, w, late)
	if b, err = f.Tick(context.Background()); err != nil || !b.Reorder || b.Advanced != 0 {
		t.Fatalf("out-of-order Tick: %+v, %v", b, err)
	}
	requireScratch(t, f, append(all, late...))
}

// TestFollowMalformedTimesIsTerminal: a followed trace that appends an
// event trace.Event.Valid rejects ({Start: 1, End: +Inf}) fails the Tick
// with a terminal error, and every retry fails the same way with the
// Follower left as it was: the follow parks on its last good snapshot
// instead of counting every later slice as busy.
func TestFollowMalformedTimesIsTerminal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.bin")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	w, err := traceio.NewWriter(file, traceio.FormatBinary, header)
	if err != nil {
		t.Fatal(err)
	}
	appendFlushed(t, w, events(0, 100))
	tail, err := traceio.OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Start(context.Background(), tail, 10, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		f.Close()
		f.Reslicer().Close()
	}()
	appendFlushed(t, w, []trace.Event{{Resource: 1, State: 0, Start: 1, End: math.Inf(1)}})
	pan, horizon, offset, resl := f.Pan(), f.Horizon(), f.Offset(), f.Reslicer()
	for retry := 0; retry < 2; retry++ {
		if _, err := f.Tick(context.Background()); !Terminal(err) {
			t.Fatalf("Tick %d over an End = +Inf event: err %v, want a terminal error", retry, err)
		}
		if f.Pan() != pan || f.Horizon() != horizon || f.Offset() != offset || f.Reslicer() != resl {
			t.Fatalf("failed Tick %d committed: pan %d→%d, horizon %v→%v, offset %d→%d",
				retry, pan, f.Pan(), horizon, f.Horizon(), offset, f.Offset())
		}
	}
	requireScratch(t, f, events(0, 100))
}

// newLiveFile creates a trace file with a flushed header and returns
// its path and writer; the file is closed at cleanup.
func newLiveFile(t *testing.T) (string, traceio.Writer) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "live.bin")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	w, err := traceio.NewWriter(file, traceio.FormatBinary, header)
	if err != nil {
		t.Fatal(err)
	}
	if err := traceio.Flush(w); err != nil {
		t.Fatal(err)
	}
	return path, w
}

// startFollower starts a RAM-indexed Follower over path with a 10-slice
// live window, closed at cleanup.
func startFollower(t *testing.T, path string) *Follower {
	t.Helper()
	tail, err := traceio.OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Start(context.Background(), tail, 10, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f.Close()
		f.Reslicer().Close()
	})
	return f
}

// TestResumeWatchesOnlyItsTail: Resume replays the prefix through one
// tail and continues on another; only the one it keeps sets up a watch.
func TestResumeWatchesOnlyItsTail(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path, w := newLiveFile(t)
	appendFlushed(t, w, events(0, 100))
	f := startFollower(t, path)

	var setups atomic.Int32
	failpoint.EnableFunc(traceio.FailpointWatch, func(context.Context) error {
		setups.Add(1)
		return nil
	})
	defer failpoint.Disable(traceio.FailpointWatch)
	r, err := Resume(context.Background(), path, f.Offset(), f.Horizon(), f.Anchor(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r.Close()
		r.Reslicer().Close()
	}()
	if n := setups.Load(); n != 1 {
		t.Fatalf("Resume set up %d watches; want 1, on the tail it continues on", n)
	}
}

// TestWaitRests: after a tick that cost nothing a write wakes Wait at
// once; one slow tick after cheap ones does not hold off the next wake,
// but two costly ticks in a row make it wait out restFactor times their
// cost; the rest never outlasts poll; and a done context ends the wait.
func TestWaitRests(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	path, w := newLiveFile(t)
	appendFlushed(t, w, events(0, 100))
	f := startFollower(t, path)
	if f.Changed() == nil {
		t.Skipf("file not watched, so only the poll runs: %v", f.WatchErr())
	}
	ctx := context.Background()
	// settle drains the wakes earlier writes left pending.
	settle := func() {
		time.Sleep(20 * time.Millisecond)
		select {
		case <-f.Changed():
		default:
		}
	}
	// cheapTicks records three 0.1 ms ticks; a 1 ms poll ends each wait.
	cheapTicks := func() {
		for range 3 {
			f.Wait(ctx, time.Millisecond, 100*time.Microsecond)
		}
	}
	// wake writes and times the Wait that follows a tick costing busy.
	wake := func(busy time.Duration, at int) time.Duration {
		settle()
		appendFlushed(t, w, events(at, 10))
		t0 := time.Now()
		if !f.Wait(ctx, time.Minute, busy) {
			t.Fatal("Wait reported a done context")
		}
		return time.Since(t0)
	}

	if d := wake(0, 100); d > 2*time.Second {
		t.Fatalf("a write woke Wait after %v at a one-minute poll", d)
	}

	// One 50 ms stall among 0.1 ms ticks: resting on it alone would hold
	// the wake off for 950 ms.
	cheapTicks()
	if d := wake(50*time.Millisecond, 110); d > 50*time.Millisecond {
		t.Fatalf("after one 50ms tick among 0.1ms ones a write woke Wait after %v; want the 0.1ms ticks' rest", d)
	}

	const busy = 5 * time.Millisecond
	cheapTicks()
	if d := wake(busy, 120); d > 50*time.Millisecond {
		t.Fatalf("after the first %v tick a write woke Wait after %v; want the 0.1ms ticks' rest", busy, d)
	}
	if d := wake(busy, 130); d < restFactor*busy || d > 10*time.Second {
		t.Fatalf("after two %v ticks a write woke Wait after %v; want no sooner than %v", busy, d, restFactor*busy)
	}

	const poll = 50 * time.Millisecond
	settle()
	t0 := time.Now()
	f.Wait(ctx, poll, time.Hour)
	if d := time.Since(t0); d < poll || d > 10*time.Second {
		t.Fatalf("with no write and a %v poll, Wait returned after %v", poll, d)
	}

	done, cancel := context.WithCancel(ctx)
	cancel()
	if f.Wait(done, time.Minute, busy) {
		t.Fatal("Wait on a done context reported a tick")
	}
}
