package microscopic

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
)

// chainExtend builds a reslicer over the first cut of tr's events and
// Extends it with the remaining cuts one batch at a time, returning every
// intermediate snapshot (snapshots[i] indexes tr.Events[:cuts[i]]).
func chainExtend(t *testing.T, tr *trace.Trace, cuts []int, opt IndexOptions) []*Reslicer {
	t.Helper()
	r, err := NewReslicerIndexed(TraceSource(prefixTrace(tr, cuts[0])), opt)
	if err != nil {
		t.Fatalf("NewReslicerIndexed(prefix): %v", err)
	}
	snaps := []*Reslicer{r}
	for i := 1; i < len(cuts); i++ {
		r, err = r.Extend(tr.Events[cuts[i-1]:cuts[i]], tr.End)
		if err != nil {
			t.Fatalf("Extend(batch %d): %v", i, err)
		}
		snaps = append(snaps, r)
	}
	return snaps
}

// prefixTrace is tr cut down to its first n events.
func prefixTrace(tr *trace.Trace, n int) *trace.Trace {
	return &trace.Trace{Resources: tr.Resources, States: tr.States,
		Events: tr.Events[:n], Start: tr.Start, End: tr.End}
}

// oneShotModel builds tr's model at sl through a fresh index — the
// reference every extend chain must match bit for bit.
func oneShotModel(t *testing.T, tr *trace.Trace, opt IndexOptions, sl timeslice.Slicer) *Model {
	t.Helper()
	r, err := NewReslicerIndexed(TraceSource(tr), opt)
	if err != nil {
		t.Fatalf("NewReslicerIndexed: %v", err)
	}
	defer r.Close()
	return mustBuildAt(t, r, sl)
}

// timeOrderedTrace is randomTrace sorted by start, the order a live
// writer appends in, except that about lateFrac of the events start
// earlier than their position says, so their batch reaches some leaf
// out of order.
func timeOrderedTrace(rng *rand.Rand, nRes, nEv int, winEnd, lateFrac float64) *trace.Trace {
	tr := randomTrace(rng, nRes, nEv, winEnd)
	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].Start < tr.Events[j].Start })
	for i := range tr.Events {
		if e := &tr.Events[i]; rng.Float64() < lateFrac {
			d := math.Min(e.Start, rng.Float64()*winEnd/5)
			e.Start, e.End = e.Start-d, e.End-d
		}
	}
	return tr
}

// ramOf returns the RAM index an extend grows: the index itself, or the
// overlay's tail on the disk backend (nil for a bare disk index).
func ramOf(ix eventIndex) *ramIndex {
	switch ix := ix.(type) {
	case *ramIndex:
		return ix
	case *overlayIndex:
		return ix.tail
	}
	return nil
}

// leafGrowth counts, among the non-empty leaves of a that grew in b,
// those appended in place (b's arrays share a's backing array) and those
// that took a new event before a's last one (the copying merge). A leaf
// that outgrew its capacity on append counts as neither.
func leafGrowth(a, b *Reslicer) (inPlace, merged int) {
	ra, rb := ramOf(a.idx), ramOf(b.idx)
	if ra == nil || rb == nil {
		return 0, 0
	}
	for s, l := range ra.leaves {
		old, cur := l.start, rb.leaves[s].start
		switch {
		case len(old) == 0 || len(cur) == len(old):
		case &cur[0] == &old[0]:
			inPlace++
		case !slices.Equal(cur[:len(old)], old):
			merged++
		}
	}
	return inPlace, merged
}

// randomCuts splits [0, n] into 1–8 increasing cut points ending at n
// (batch sizes vary from empty to large).
func randomCuts(rng *rand.Rand, n int) []int {
	k := 1 + rng.Intn(8)
	cuts := make([]int, k)
	for i := 0; i < k-1; i++ {
		cuts[i] = rng.Intn(n + 1)
	}
	cuts[k-1] = n
	for i := 1; i < k; i++ { // make non-decreasing in place
		if cuts[i] < cuts[i-1] {
			cuts[i] = cuts[i-1]
		}
	}
	return cuts
}

// TestExtendChainBitIdentical is the live-ingestion correctness property:
// any chain of Extends is bit-identical to a one-shot build over the
// concatenated events — models built at arbitrary windows agree cell for
// cell — on both the RAM and the disk index backends.
func TestExtendChainBitIdentical(t *testing.T) {
	backends := []struct {
		name string
		opt  func() IndexOptions
	}{
		{"ram", func() IndexOptions { return IndexOptions{Mode: IndexRAM} }},
		{"disk", func() IndexOptions { return IndexOptions{Mode: IndexDisk, Dir: t.TempDir()} }},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 6; trial++ {
				tr := randomTrace(rng, 5, 400, 10)
				cuts := randomCuts(rng, len(tr.Events))

				oneShot, err := NewReslicerIndexed(TraceSource(tr), b.opt())
				if err != nil {
					t.Fatal(err)
				}
				snaps := chainExtend(t, tr, cuts, b.opt())
				chained := snaps[len(snaps)-1]

				if got, want := chained.NumEvents(), oneShot.NumEvents(); got != want {
					t.Fatalf("trial %d: chained NumEvents = %d, one-shot = %d", trial, got, want)
				}
				windows := []timeslice.Slicer{
					mustSlicer(t, 0, 10, 16),
					mustSlicer(t, 2.5, 7.5, 9),
					mustSlicer(t, 0, 10, 16).Shift(3),
				}
				for _, sl := range windows {
					got := mustBuildAt(t, chained, sl)
					want := mustBuildAt(t, oneShot, sl)
					modelsBitIdentical(t, got, want, "chained vs one-shot")
				}
				// Closing only the newest snapshot releases the shared
				// backing store exactly once.
				if err := chained.Close(); err != nil {
					t.Fatalf("Close(chained): %v", err)
				}
				oneShot.Close()
			}
		})
	}
}

// TestExtendTimeOrderedChainBitIdentical is TestExtendChainBitIdentical
// for the shape a live writer produces: time-ordered batches, most of
// which append in place, mixed with late events that force a leaf
// through the copying merge. The chain, and every snapshot along it,
// stays bit-identical to a one-shot build over its prefix.
func TestExtendTimeOrderedChainBitIdentical(t *testing.T) {
	backends := []struct {
		name string
		opt  func() IndexOptions
	}{
		{"ram", func() IndexOptions { return IndexOptions{Mode: IndexRAM} }},
		{"disk", func() IndexOptions { return IndexOptions{Mode: IndexDisk, Dir: t.TempDir()} }},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			var inPlace, merged int
			for trial := 0; trial < 6; trial++ {
				tr := timeOrderedTrace(rng, 5, 600, 10, 0.03)
				cuts := make([]int, 12+rng.Intn(12))
				for i := range cuts {
					cuts[i] = rng.Intn(len(tr.Events) + 1)
				}
				sort.Ints(cuts)
				cuts[len(cuts)-1] = len(tr.Events)

				snaps := chainExtend(t, tr, cuts, b.opt())
				windows := []timeslice.Slicer{
					mustSlicer(t, 0, 10, 16),
					mustSlicer(t, 2.5, 7.5, 9),
				}
				for i, snap := range snaps {
					if i > 0 {
						p, m := leafGrowth(snaps[i-1], snap)
						inPlace, merged = inPlace+p, merged+m
					}
					for _, sl := range windows {
						want := oneShotModel(t, prefixTrace(tr, cuts[i]), b.opt(), sl)
						modelsBitIdentical(t, mustBuildAt(t, snap, sl), want, "snapshot vs one-shot prefix")
					}
				}
				if err := snaps[len(snaps)-1].Close(); err != nil {
					t.Fatalf("Close(chained): %v", err)
				}
			}
			// The property covers both paths only if both ran.
			if inPlace == 0 || merged == 0 {
				t.Fatalf("leaf extends: %d in place, %d merged; want both paths exercised", inPlace, merged)
			}
		})
	}
}

// TestExtendStaleSiblingKeepsSnapshot: extending a stale snapshot twice
// must not write into the arrays its first extension appended into.
// A (which has spare capacity) extends in place into B; A extends again
// into C with a batch for one leaf only, so C shares A's other leaves;
// C then extends with events for those leaves. Unless C's shared leaves
// had their capacity clipped, that append would land on B's events.
func TestExtendStaleSiblingKeepsSnapshot(t *testing.T) {
	for _, b := range []struct {
		name string
		opt  IndexOptions
	}{
		{"ram", IndexOptions{Mode: IndexRAM}},
		{"disk", IndexOptions{Mode: IndexDisk, Dir: t.TempDir()}},
	} {
		t.Run(b.name, func(t *testing.T) {
			res := []string{"c/a", "c/b", "c/c", "c/d"}
			clock := 0.0
			// batch emits steps rounds of one event per listed resource,
			// each starting later than the last.
			batch := func(steps int, resources ...int) []trace.Event {
				var evs []trace.Event
				for k := 0; k < steps; k++ {
					for _, r := range resources {
						evs = append(evs, trace.Event{Resource: trace.ResourceID(r),
							State: trace.StateID((k + r) % 3), Start: clock, End: clock + 0.35})
						clock += 0.01
					}
				}
				return evs
			}
			all := []int{0, 1, 2, 3}
			baseEvs, a1Evs, aEvs, bEvs := batch(40, all...), batch(10, all...), batch(1, all...), batch(5, all...)
			cEvs, dEvs := batch(1, 0), batch(5, 1, 2, 3)
			const end = 3.0
			mk := func(parts ...[]trace.Event) *trace.Trace {
				tr := trace.New(res, []string{"work", "wait", "io"})
				tr.Start, tr.End = 0, end
				for _, p := range parts {
					tr.Events = append(tr.Events, p...)
				}
				return tr
			}
			extend := func(r *Reslicer, evs []trace.Event) *Reslicer {
				t.Helper()
				nr, err := r.Extend(evs, end)
				if err != nil {
					t.Fatalf("Extend: %v", err)
				}
				return nr
			}

			base, err := NewReslicerIndexed(TraceSource(mk(baseEvs)), b.opt)
			if err != nil {
				t.Fatal(err)
			}
			// Two extends leave A's arrays with spare capacity on both
			// backends (the disk overlay's first tail is built exact).
			a := extend(extend(base, a1Evs), aEvs)
			sb := extend(a, bEvs)
			if p, _ := leafGrowth(a, sb); p != len(res) {
				t.Fatalf("A→B grew %d leaves in place, want %d", p, len(res))
			}
			sc := extend(a, cEvs)
			sd := extend(sc, dEvs)

			sl := mustSlicer(t, 0, end, 30)
			modelsBitIdentical(t, mustBuildAt(t, sb, sl),
				oneShotModel(t, mk(baseEvs, a1Evs, aEvs, bEvs), b.opt, sl), "B after stale sibling extends")
			modelsBitIdentical(t, mustBuildAt(t, sd, sl),
				oneShotModel(t, mk(baseEvs, a1Evs, aEvs, cEvs, dEvs), b.opt, sl), "D")
			sd.Close() // the snapshots share one store; close it once
		})
	}
}

// TestExtendAllocatesPerEvent guards the O(Δ) follow tick: with 2,000
// ticks of time-ordered history behind it, a tick allocates a bounded
// number of bytes per event it appends. A tick that copied the touched
// leaves would allocate about 28 B per event of history instead (tens of
// kilobytes per appended event here).
func TestExtendAllocatesPerEvent(t *testing.T) {
	const (
		history  = 2000
		measured = 200
		perTick  = 64
		nRes     = 16
		// Amortized array growth, the per-tick bucket and header
		// allocations, and at most one growth step of every leaf inside
		// the measured ticks stay well under this.
		maxBytesPerEvent = 1024
	)
	res := make([]string, nRes)
	for i := range res {
		res[i] = fmt.Sprintf("c/r%d", i)
	}
	tick := func(i int) ([]trace.Event, float64) {
		evs := make([]trace.Event, perTick)
		for k := range evs {
			s := float64(i) + float64(k)/perTick
			evs[k] = trace.Event{Resource: trace.ResourceID(k % nRes), State: trace.StateID(k % 3), Start: s, End: s + 0.05}
		}
		return evs, float64(i + 1)
	}
	for _, b := range []struct {
		name string
		opt  IndexOptions
	}{
		{"ram", IndexOptions{Mode: IndexRAM}},
		{"disk", IndexOptions{Mode: IndexDisk, Dir: t.TempDir()}},
	} {
		t.Run(b.name, func(t *testing.T) {
			tr := trace.New(res, []string{"work", "wait", "io"})
			tr.Events, tr.End = tick(0)
			r, err := NewReslicerIndexed(TraceSource(tr), b.opt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= history; i++ {
				evs, end := tick(i)
				if r, err = r.Extend(evs, end); err != nil {
					t.Fatal(err)
				}
			}
			batches := make([][]trace.Event, measured)
			ends := make([]float64, measured)
			for i := range batches {
				batches[i], ends[i] = tick(history + 1 + i)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i, evs := range batches {
				if r, err = r.Extend(evs, ends[i]); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perEvent := float64(after.TotalAlloc-before.TotalAlloc) / (measured * perTick)
			t.Logf("%.0f B allocated per appended event", perEvent)
			if perEvent > maxBytesPerEvent {
				t.Fatalf("extend allocates %.0f B per appended event after %d ticks of history, want ≤ %d", perEvent, history, maxBytesPerEvent)
			}
			r.Close()
		})
	}
}

// TestExtendSnapshotIsolation: Extend is copy-on-write — a snapshot keeps
// filling from exactly the events it was built over, even after later
// snapshots grow past it.
func TestExtendSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng, 4, 300, 10)
	cuts := []int{100, 200, 300}
	snaps := chainExtend(t, tr, cuts, IndexOptions{Mode: IndexRAM})

	sl := mustSlicer(t, 0, 10, 12)
	before := mustBuildAt(t, snaps[0], sl)
	// Extend again off the middle snapshot; the first must not notice.
	if _, err := snaps[1].Extend(tr.Events[:50], tr.End); err != nil {
		t.Fatalf("Extend off middle snapshot: %v", err)
	}
	after := mustBuildAt(t, snaps[0], sl)
	modelsBitIdentical(t, after, before, "snapshot after later Extends")

	for i, cut := range cuts {
		if got := snaps[i].NumEvents(); got != cut {
			t.Errorf("snapshot %d: NumEvents = %d, want %d", i, got, cut)
		}
	}
}

// TestExtendConcurrentReads drives BuildAt on earlier snapshots while the
// chain keeps extending — the copy-on-write contract under the race
// detector, on both backends.
func TestExtendConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	concurrentReads(t, randomTrace(rng, 5, 2000, 10))
}

// TestExtendInPlaceConcurrentReads is TestExtendConcurrentReads over a
// time-ordered trace: nearly every extend appends in place, into the
// backing arrays the snapshot being read shares with its successor.
func TestExtendInPlaceConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	concurrentReads(t, timeOrderedTrace(rng, 5, 2000, 10, 0))
}

// concurrentReads extends a reslicer over tr 100 events at a time, on
// both backends, while a goroutine per snapshot builds models from the
// snapshot the next extend grows. Every snapshot's model must match a
// one-shot build over its own prefix, and the newest one over all of tr.
func concurrentReads(t *testing.T, tr *trace.Trace) {
	for _, b := range []struct {
		name string
		opt  IndexOptions
	}{
		{"ram", IndexOptions{Mode: IndexRAM}},
		{"disk", IndexOptions{Mode: IndexDisk, Dir: t.TempDir()}},
	} {
		t.Run(b.name, func(t *testing.T) {
			r, err := NewReslicerIndexed(TraceSource(prefixTrace(tr, 200)), b.opt)
			if err != nil {
				t.Fatal(err)
			}
			sl := mustSlicer(t, 0, 10, 8)

			var cuts []int // cuts[i]: events in the snapshot read by goroutine i
			for cut := 200; cut+100 <= len(tr.Events); cut += 100 {
				cuts = append(cuts, cut)
			}
			models := make([]*Model, len(cuts))
			var wg sync.WaitGroup
			cur := r
			for i, cut := range cuts {
				snap, slot := cur, &models[i]
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < 3; k++ {
						m, err := snap.BuildAt(sl)
						if err != nil {
							t.Errorf("concurrent BuildAt: %v", err)
							return
						}
						*slot = m
					}
				}()
				cur, err = cur.Extend(tr.Events[cut:cut+100], tr.End)
				if err != nil {
					t.Fatalf("Extend: %v", err)
				}
			}
			wg.Wait()
			for i, cut := range cuts {
				if models[i] == nil {
					continue // its goroutine already reported
				}
				want := oneShotModel(t, prefixTrace(tr, cut), b.opt, sl)
				modelsBitIdentical(t, models[i], want, "snapshot read during extend")
			}
			got := mustBuildAt(t, cur, sl)
			modelsBitIdentical(t, got, oneShotModel(t, tr, b.opt, sl), "after concurrent extends")
			cur.Close() // newest snapshot owns the shared store
		})
	}
}

// TestExtendErrors: window shrinks, NaN ends, and out-of-table events are
// refused without corrupting the receiver.
func TestExtendErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng, 3, 50, 10)
	r, err := NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Extend(nil, 5); err == nil {
		t.Error("Extend to a smaller window: want error")
	}
	if _, err := r.Extend(nil, nan()); err == nil {
		t.Error("Extend to NaN: want error")
	}
	bad := []trace.Event{{Resource: 99, State: 0, Start: 1, End: 2}}
	if _, err := r.Extend(bad, 12); err == nil {
		t.Error("Extend with unknown resource: want error")
	}
	bad[0] = trace.Event{Resource: 0, State: 99, Start: 1, End: 2}
	if _, err := r.Extend(bad, 12); err == nil {
		t.Error("Extend with unknown state: want error")
	}
	// The receiver still works after refused extends.
	mustBuildAt(t, r, mustSlicer(t, 0, 10, 8))
}

// TestInvalidEventsRejected: every path by which events enter the index
// — BuildStream, the RAM and disk index builders, the auto builder past
// its spill, and Extend — refuses an event with an infinite or NaN time or
// End < Start, with an error naming the event's index.
func TestInvalidEventsRejected(t *testing.T) {
	for _, bad := range []trace.Event{
		{Start: 1, End: math.Inf(1)},
		{Start: math.Inf(-1), End: 2},
		{Start: nan(), End: 2},
		{Start: 1, End: nan()},
		{Start: 3, End: 2},
	} {
		tr := trace.New([]string{"c/r0", "c/r1"}, []string{"x"})
		tr.Start, tr.End = 0, 10
		tr.Add(0, 0, 1, 2)
		tr.Add(1, 0, 2, 3)
		good := tr.Events
		tr.Events = append(slices.Clone(good), bad)
		check := func(path string, err error, want string) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s accepted or misreported event [%v, %v): error %v, want one naming %q", path, bad.Start, bad.End, err, want)
			}
		}
		_, err := Build(tr, Options{Slices: 4})
		check("BuildStream", err, "event 2 ")
		for _, c := range []struct {
			path string
			opt  IndexOptions
		}{
			{"RAM index", IndexOptions{Mode: IndexRAM}},
			{"disk index", IndexOptions{Mode: IndexDisk, Dir: t.TempDir()}},
			{"auto index past its spill", IndexOptions{Mode: IndexAuto, Threshold: 1, Dir: t.TempDir()}},
		} {
			_, err := NewReslicerIndexed(TraceSource(tr), c.opt)
			check(c.path, err, "event 2 ")
		}
		tr.Events = good
		r, err := NewReslicer(tr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Extend([]trace.Event{{Start: 4, End: 5}, bad}, 12)
		check("Extend", err, "event 1 ")
	}
}

// TestExtendEmptyBatch grows the window without events: same index, new
// bounds, usable immediately.
func TestExtendEmptyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomTrace(rng, 3, 80, 10)
	r, err := NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := r.Extend(nil, 14)
	if err != nil {
		t.Fatal(err)
	}
	if nr.NumEvents() != r.NumEvents() {
		t.Errorf("NumEvents changed: %d vs %d", nr.NumEvents(), r.NumEvents())
	}
	if _, end := nr.TraceWindow(); end != 14 {
		t.Errorf("window end = %v, want 14", end)
	}
	modelsBitIdentical(t,
		mustBuildAt(t, nr, mustSlicer(t, 0, 10, 8)),
		mustBuildAt(t, r, mustSlicer(t, 0, 10, 8)),
		"empty extend")
}

func mustSlicer(t *testing.T, lo, hi float64, n int) timeslice.Slicer {
	t.Helper()
	sl, err := timeslice.New(lo, hi, n)
	if err != nil {
		t.Fatal(err)
	}
	return sl
}

func nan() float64 {
	var z float64
	return z / z
}
