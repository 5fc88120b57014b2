package microscopic

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ocelotl/internal/eventstore"
	"ocelotl/internal/hierarchy"
	"ocelotl/internal/testutil"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// refLoad is the reference the pipelined load is checked against: the
// serial RAM load it replaced, kept verbatim in spirit and self-contained.
// Each event is validated (checkEvent, the shared acceptance rules) and
// appended to its leaf's bucket in stream order; then each bucket is
// stably sorted by start and copied into exact-size columns with the
// running max end.
func refLoad(src EventSource) (*ramIndex, error) {
	h, err := hierarchy.FromPaths(src.Resources())
	if err != nil {
		return nil, err
	}
	r2leaf, err := leafMap(h, src.Resources())
	if err != nil {
		return nil, err
	}
	type refEvent struct {
		start, end float64
		state      int32
	}
	tmp := make([][]refEvent, h.NumLeaves())
	var ev trace.Event
	for k := 0; ; k++ {
		if err := src.Next(&ev); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("microscopic: reading events: %w", err)
		}
		leaf, err := checkEvent(r2leaf, len(src.States()), k, ev)
		if err != nil {
			return nil, err
		}
		tmp[leaf] = append(tmp[leaf], refEvent{ev.Start, ev.End, int32(ev.State)})
	}
	ix := &ramIndex{leaves: make([]ramLeaf, len(tmp))}
	for s, evs := range tmp {
		slices.SortStableFunc(evs, func(a, b refEvent) int { return cmp.Compare(a.start, b.start) })
		n := len(evs)
		l := ramLeaf{
			start:  make([]float64, 0, n),
			end:    make([]float64, 0, n),
			state:  make([]int32, 0, n),
			maxEnd: make([]float64, 0, n),
		}
		for _, e := range evs {
			running := e.end
			if m := len(l.maxEnd); m > 0 && !(e.end > l.maxEnd[m-1]) {
				running = l.maxEnd[m-1]
			}
			l.start = append(l.start, e.start)
			l.end = append(l.end, e.end)
			l.state = append(l.state, e.state)
			l.maxEnd = append(l.maxEnd, running)
		}
		ix.leaves[s] = l
	}
	return ix, nil
}

// sameLoadError fails unless got and want are both nil, or both errors
// with the same text; a CorruptError must also keep its byte offset.
func sameLoadError(t *testing.T, what string, got, want error) {
	t.Helper()
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	case want == nil:
		return
	case got.Error() != want.Error():
		t.Fatalf("%s: error %q, reference %q", what, got, want)
	}
	var gc, wc *traceio.CorruptError
	if errors.As(want, &wc) && (!errors.As(got, &gc) || gc.Offset != wc.Offset) {
		t.Fatalf("%s: error %v lost the reference's CorruptError at offset %d", what, got, wc.Offset)
	}
}

// ramLeavesIdentical fails unless got's leaves equal want's bit for bit,
// capacities included (memoryBytes counts capacity).
func ramLeavesIdentical(t *testing.T, what string, got, want *ramIndex) {
	t.Helper()
	if len(got.leaves) != len(want.leaves) {
		t.Fatalf("%s: %d leaves, reference %d", what, len(got.leaves), len(want.leaves))
	}
	floats := func(a, b []float64) bool {
		return len(a) == len(b) && cap(a) == cap(b) &&
			slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for s := range want.leaves {
		g, w := got.leaves[s], want.leaves[s]
		if !floats(g.start, w.start) || !floats(g.end, w.end) || !floats(g.maxEnd, w.maxEnd) ||
			!slices.Equal(g.state, w.state) || cap(g.state) != cap(w.state) {
			t.Fatalf("%s: leaf %d differs from the reference", what, s)
		}
	}
	if got.memoryBytes() != want.memoryBytes() {
		t.Fatalf("%s: memoryBytes %d, reference %d", what, got.memoryBytes(), want.memoryBytes())
	}
}

// fillSequence lists what idx visits on leaf over [lo, hi), floats as
// bits so ±0 and every ulp count.
func fillSequence(t *testing.T, idx eventIndex, leaf int, lo, hi float64) [][3]uint64 {
	t.Helper()
	var seq [][3]uint64
	if err := idx.fill(leaf, lo, hi, func(state int32, start, end float64) {
		seq = append(seq, [3]uint64{uint64(state), math.Float64bits(start), math.Float64bits(end)})
	}); err != nil {
		t.Fatalf("fill leaf %d [%g, %g): %v", leaf, lo, hi, err)
	}
	return seq
}

// rawRec is one binary event record, written as is: rawTrace encodes
// records the traceio writer would refuse.
type rawRec struct {
	res, state uint64
	start, end float64
}

// rawTrace encodes an OCLT binary trace over four resources in two
// clusters and two states.
func rawTrace(recs []rawRec) []byte {
	var b bytes.Buffer
	u32 := func(v uint32) { binary.Write(&b, binary.LittleEndian, v) }
	f64 := func(v float64) { binary.Write(&b, binary.LittleEndian, math.Float64bits(v)) }
	strs := func(ss ...string) {
		u32(uint32(len(ss)))
		for _, s := range ss {
			binary.Write(&b, binary.LittleEndian, uint16(len(s)))
			b.WriteString(s)
		}
	}
	b.WriteString("OCLT")
	u32(1)
	f64(0)
	f64(100)
	strs("c0/r0", "c0/r1", "c1/r2", "c1/r3")
	strs("work", "wait")
	for _, r := range recs {
		b.Write(binary.AppendUvarint(nil, r.res))
		b.Write(binary.AppendUvarint(nil, r.state))
		f64(r.start)
		f64(r.end)
	}
	return b.Bytes()
}

// rawRecs returns n time-ordered records spread over the four resources.
func rawRecs(n int) []rawRec {
	recs := make([]rawRec, n)
	for i := range recs {
		s := float64(i) * 0.01
		recs[i] = rawRec{res: uint64(i % 4), state: uint64(i % 2), start: s, end: s + 0.005*float64(i%3+1)}
	}
	return recs
}

// loadFuzzThreshold maps the fuzz input's threshold byte to an IndexAuto
// threshold reaching past the first reader block, so spills land inside
// the first or the second block.
func loadFuzzThreshold(thr uint8) int64 { return 1 + int64(thr)*23 }

// FuzzLoadIndex feeds raw trace bytes through traceio into
// NewReslicerIndexed, as a RAM index and as an IndexAuto index whose
// threshold comes from the input, and checks both against refLoad: the
// same input is accepted or rejected with the same error, RAM leaves are
// bit-identical, and a spilled index visits the same events in the same
// order over windows drawn from the input.
func FuzzLoadIndex(f *testing.F) {
	f.Add(rawTrace(nil), uint8(0))
	f.Add(rawTrace(rawRecs(20))[:len(rawTrace(rawRecs(20)))-5], uint8(3))
	bad0 := rawRecs(10)
	bad0[0].state = 7
	f.Add(rawTrace(bad0), uint8(1))
	bad5000 := rawRecs(5100)
	bad5000[5000].state = 7
	f.Add(rawTrace(bad5000), uint8(200))
	// Resource 1's 3000 events run backwards over four column chunks and
	// three reader blocks.
	backwards := rawRecs(12000)
	for i := range backwards {
		if backwards[i].res == 1 {
			backwards[i].start = 5 - backwards[i].start
			backwards[i].end = backwards[i].start + 0.5
		}
	}
	f.Add(rawTrace(backwards), uint8(4))
	zero := math.Copysign(0, -1)
	f.Add(rawTrace([]rawRec{
		{0, 0, 0, 1}, {0, 1, zero, 1}, {0, 0, 0, zero + 0}, {0, 1, zero, zero},
		{1, 0, zero, 2}, {1, 1, 0, 3}, {0, 0, zero, 0}, {2, 1, 0, 0},
		{3, 0, zero, zero}, {3, 1, zero, 0}, {3, 0, 0, zero}, {3, 1, 0, 0},
	}), uint8(0))
	f.Add(rawTrace(rawRecs(9000)), uint8(180))

	f.Fuzz(func(t *testing.T, data []byte, thr uint8) {
		open := func() traceio.Reader {
			r, err := traceio.NewReader(bytes.NewReader(data))
			if err != nil {
				return nil
			}
			return r
		}
		src := open()
		if src == nil {
			return
		}
		defer src.Close()
		want, wantErr := refLoad(src)
		load := func(opt IndexOptions) (*Reslicer, error) {
			src := open()
			defer src.Close()
			return NewReslicerIndexed(src, opt)
		}

		r, err := load(IndexOptions{Mode: IndexRAM})
		sameLoadError(t, "ram", err, wantErr)
		if err == nil {
			ramLeavesIdentical(t, "ram", r.idx.(*ramIndex), want)
		}

		r, err = load(IndexOptions{Mode: IndexAuto, Threshold: loadFuzzThreshold(thr), Dir: t.TempDir()})
		sameLoadError(t, "auto", err, wantErr)
		if err != nil {
			return
		}
		defer r.Close()
		if r.IndexKind() == "ram" {
			ramLeavesIdentical(t, "auto", r.idx.(*ramIndex), want)
			return
		}
		var starts []float64
		for _, l := range want.leaves {
			starts = append(starts, l.start...)
		}
		slices.Sort(starts)
		windows := [][2]float64{{-math.MaxFloat64, math.MaxFloat64}}
		for i := range 3 {
			a := starts[(int(thr)+7*i)%len(starts)]
			b := starts[(len(data)+13*i)%len(starts)]
			windows = append(windows, [2]float64{min(a, b), max(a, b)}, [2]float64{min(a, b), max(a, b) + 0.01})
		}
		for leaf := range want.leaves {
			for _, w := range windows {
				got, ref := fillSequence(t, r.idx, leaf, w[0], w[1]), fillSequence(t, want, leaf, w[0], w[1])
				if !slices.Equal(got, ref) {
					t.Fatalf("spilled index, leaf %d window [%g, %g): %d events, reference %d (or a different order)",
						leaf, w[0], w[1], len(got), len(ref))
				}
			}
		}
	})
}

// genSource streams time-ordered valid events over four resources,
// without end when limit < 0. Event bad, if not negative, names a
// resource outside the table.
type genSource struct {
	k, limit, bad int
}

func (g *genSource) Resources() []string        { return []string{"c0/r0", "c0/r1", "c1/r2", "c1/r3"} }
func (g *genSource) States() []string           { return []string{"work", "wait"} }
func (g *genSource) Window() (float64, float64) { return 0, 1e9 }
func (g *genSource) Next(ev *trace.Event) error {
	if g.k == g.limit {
		return io.EOF
	}
	s := float64(g.k) * 0.01
	*ev = trace.Event{Resource: trace.ResourceID(g.k % 4), State: trace.StateID(g.k % 2), Start: s, End: s + 0.005}
	if g.k == g.bad {
		ev.Resource = 9
	}
	g.k++
	return nil
}

// guardSource fails the test on any Next after the load returned, and
// runs hook before reading event k.
type guardSource struct {
	EventSource
	t        *testing.T
	returned atomic.Bool
	k        int
	hook     func(k int)
}

func (g *guardSource) Next(ev *trace.Event) error {
	if g.returned.Load() {
		g.t.Error("source read after NewReslicerIndexed returned")
		return io.EOF
	}
	if g.hook != nil {
		g.hook(g.k)
	}
	g.k++
	return g.EventSource.Next(ev)
}

// TestIndexedLoadStopsReader: on every way a load can end, the reader
// goroutine has stopped reading the source when NewReslicerIndexed
// returns, and no goroutine outlives it.
func TestIndexedLoadStopsReader(t *testing.T) {
	corrupt := rawRecs(6000)
	corrupt[5000].state = 7
	corruptData := rawTrace(corrupt)
	missing := filepath.Join(t.TempDir(), "missing")
	doomed := filepath.Join(t.TempDir(), "doomed")
	if err := os.Mkdir(doomed, 0o755); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name    string
		src     func(t *testing.T) EventSource
		opt     IndexOptions
		hook    func(k int)
		wantErr string // "" for a clean load
	}{
		{
			name: "corrupt record past the first block",
			src: func(t *testing.T) EventSource {
				r, err := traceio.NewReader(bytes.NewReader(corruptData))
				if err != nil {
					t.Fatal(err)
				}
				return r
			},
			opt:     IndexOptions{Mode: IndexRAM},
			wantErr: "microscopic: reading events: ",
		},
		{
			name:    "checkEvent failure",
			src:     func(*testing.T) EventSource { return &genSource{limit: -1, bad: 5000} },
			opt:     IndexOptions{Mode: IndexRAM},
			wantErr: "microscopic: event 5000 references resource 9, table has 4",
		},
		{
			name:    "spill into an unwritable directory",
			src:     func(*testing.T) EventSource { return &genSource{limit: -1, bad: -1} },
			opt:     IndexOptions{Mode: IndexAuto, Threshold: 5000, Dir: missing},
			wantErr: "microscopic: disk index: ",
		},
		{
			name: "store builder failing mid-stream",
			src:  func(*testing.T) EventSource { return &genSource{limit: -1, bad: -1} },
			opt:  IndexOptions{Mode: IndexDisk, Dir: doomed, Store: eventstore.Options{SortBufferEvents: 1000}},
			hook: func(k int) {
				if k == 3000 {
					os.RemoveAll(doomed)
				}
			},
			wantErr: "eventstore: spill run: ",
		},
		{
			name: "clean load at GOMAXPROCS=1",
			src:  func(*testing.T) EventSource { return &genSource{limit: 20000, bad: -1} },
			opt:  IndexOptions{Mode: IndexRAM},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			if c.wantErr == "" {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			g := &guardSource{EventSource: c.src(t), t: t, hook: c.hook}
			r, err := NewReslicerIndexed(g, c.opt)
			g.returned.Store(true)
			if c.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				want, err := refLoad(c.src(t))
				if err != nil {
					t.Fatal(err)
				}
				ramLeavesIdentical(t, c.name, r.idx.(*ramIndex), want)
				return
			}
			if err == nil {
				r.Close()
				t.Fatalf("load succeeded; want an error starting %q", c.wantErr)
			}
			if !strings.HasPrefix(err.Error(), c.wantErr) {
				t.Fatalf("error %q; want one starting %q", err, c.wantErr)
			}
		})
	}
}
