package microscopic

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"ocelotl/internal/trace"
)

// A load is one pipelined pass over an EventSource. A reader goroutine
// decodes and validates events into fixed-size blocks; the constructor's
// goroutine routes each block's events into per-leaf column chunks (or a
// store builder) while the reader decodes the next block, so decoding and
// indexing overlap. Each event is written once on the way in and copied
// once more, by freezeColumns, into the exact-size columns of the index.

const (
	// loadBlockEvents is the number of events one reader block carries.
	loadBlockEvents = 4096
	// loadBlocks bounds the blocks in flight between reader and indexer;
	// they are recycled, so a load allocates at most this many.
	loadBlocks = 4
	// firstChunk and columnChunk bound a leaf's column chunks: the first
	// holds firstChunk events and each later one twice its predecessor,
	// up to columnChunk. A leaf with few events wastes little room, and no
	// chunk is ever copied while it grows.
	firstChunk  = 256
	columnChunk = 8192
)

// loadedEvent is a validated event as the reader hands it on.
type loadedEvent struct {
	start, end float64
	state      int32
	leaf       int32
}

// loadBlock is one batch of events in stream order. The reader's last
// block carries in err what ended the stream after evs[:n]: io.EOF, or
// the error of the event that failed.
type loadBlock struct {
	evs [loadBlockEvents]loadedEvent
	n   int
	err error
}

// loadReader runs the reading half of a load on its own goroutine.
type loadReader struct {
	full, free chan *loadBlock
	stop, done chan struct{}
}

// startLoadReader starts a goroutine that reads src to its end, checking
// each event against the tables (checkEvent). Blocks arrive on full in
// stream order; the caller hands each back on free once it has consumed
// it, and must call halt before it returns, so src is not read after
// that.
func startLoadReader(src EventSource, r2leaf []int, numStates int) *loadReader {
	lr := &loadReader{
		full: make(chan *loadBlock, loadBlocks),
		free: make(chan *loadBlock, loadBlocks),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	// nil entries are blocks not allocated yet: a short stream allocates
	// only the blocks it fills.
	for range loadBlocks {
		lr.free <- nil
	}
	go lr.run(src, r2leaf, numStates)
	return lr
}

func (lr *loadReader) run(src EventSource, r2leaf []int, numStates int) {
	defer close(lr.done)
	var ev trace.Event
	k := 0
	for {
		var b *loadBlock
		select {
		case b = <-lr.free:
		case <-lr.stop:
			return
		}
		if b == nil {
			b = new(loadBlock)
		}
		n, evs := 0, &b.evs
		for ; n < len(evs); n++ {
			if err := src.Next(&ev); err != nil {
				b.err = err
				if err != io.EOF {
					b.err = fmt.Errorf("microscopic: reading events: %w", err)
				}
				break
			}
			leaf, err := checkEvent(r2leaf, numStates, k+n, ev)
			if err != nil {
				b.err = err
				break
			}
			evs[n] = loadedEvent{start: ev.Start, end: ev.End, state: int32(ev.State), leaf: int32(leaf)}
		}
		b.n = n
		k += n
		// full holds every block there is, so this never blocks.
		lr.full <- b
		if b.err != nil {
			return
		}
	}
}

// halt stops the reader and waits until it has returned.
func (lr *loadReader) halt() {
	close(lr.stop)
	<-lr.done
}

// leafColumns gathers one leaf's events during a load, in stream order,
// as a list of column chunks.
type leafColumns struct {
	chunks []columnChunks
	n      int
	// unsorted is set once an event starts before its predecessor.
	unsorted bool
	last     float64
}

type columnChunks struct {
	start, end []float64
	state      []int32
}

func (c *leafColumns) push(start, end float64, state int32) {
	k := len(c.chunks) - 1
	if k < 0 || len(c.chunks[k].start) == cap(c.chunks[k].start) {
		size := firstChunk
		if k >= 0 {
			size = min(2*cap(c.chunks[k].start), columnChunk)
		}
		c.chunks = append(c.chunks, columnChunks{
			start: make([]float64, 0, size),
			end:   make([]float64, 0, size),
			state: make([]int32, 0, size),
		})
		k++
	}
	ch := &c.chunks[k]
	ch.start = append(ch.start, start)
	ch.end = append(ch.end, end)
	ch.state = append(ch.state, state)
	if c.n > 0 && start < c.last {
		c.unsorted = true
	}
	c.last = start
	c.n++
}

// freeze returns the leaf's events as exact-size columns ordered by
// (start, stream order) — sortLeaf's order — with the running max end.
// A leaf that arrived in start order is copied chunk by chunk; any other
// goes through freezeLeaf's stable sort.
func (c *leafColumns) freeze() ramLeaf {
	if c.unsorted {
		evs := make([]indexedEvent, 0, c.n)
		for _, ch := range c.chunks {
			for i := range ch.start {
				evs = append(evs, indexedEvent{start: ch.start[i], end: ch.end[i], state: ch.state[i]})
			}
		}
		return freezeLeaf(evs)
	}
	l := ramLeaf{
		start:  make([]float64, c.n),
		end:    make([]float64, c.n),
		state:  make([]int32, c.n),
		maxEnd: make([]float64, c.n),
	}
	i := 0
	for _, ch := range c.chunks {
		copy(l.start[i:], ch.start)
		copy(l.end[i:], ch.end)
		copy(l.state[i:], ch.state)
		i += len(ch.start)
	}
	for i, e := range l.end {
		l.maxEnd[i] = runningMaxEnd(l.maxEnd[:i], e)
	}
	return l
}

// freezeColumns freezes every leaf into a ramIndex. Up to GOMAXPROCS
// workers, the caller included, each claim leaves one at a time, so each
// leaf is frozen by exactly one of them; a frozen leaf's chunks are
// dropped at once.
func freezeColumns(cols []leafColumns) *ramIndex {
	ix := &ramIndex{leaves: make([]ramLeaf, len(cols))}
	var next atomic.Int64
	work := func() {
		for {
			s := int(next.Add(1) - 1)
			if s >= len(cols) {
				return
			}
			ix.leaves[s] = cols[s].freeze()
			cols[s] = leafColumns{}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(cols)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return ix
}
