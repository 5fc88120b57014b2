package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"ocelotl/internal/partition"
)

// memoShare is the memo's byte bound as a multiple of the rest of the
// Input's resident bytes (EstimateMemoryBytes: its arenas and Model
// rows), fixed at construction: a memo may grow to memoShare times that,
// so its worst case stays a fixed multiple of the entry the serving
// layer budgets. Two keeps the dichotomy points that a stream of
// significant-p requests on one window repeats memoized across the
// requests; a tighter bound evicts them in between, and every eviction
// is a re-solve.
const memoShare = 2

// Byte estimates of a memo entry beyond its signature and area bytes:
// its map slot (key, QualityPoint, partition pointer), and a memoized
// Partition's header (areas slice and four floats). An Area is a node
// pointer and two ints.
const (
	memoEntryBytes = 112
	partitionBytes = 56
	memoAreaBytes  = 24
)

// memoEntry is one solved answer: the quality summary of the solve at
// its p and, when SolveContext stored it, the partition itself (nil for a
// summary-only entry). A partition entry's summary is derived from the
// partition the first time a sweep needs it, so its Signature is empty
// until then. Memoized partitions are shared by every caller that hits
// them and must be treated as read-only.
type memoEntry struct {
	q  QualityPoint
	pt *partition.Partition
}

func (e memoEntry) bytes() int {
	n := memoEntryBytes + len(e.q.Signature)
	if e.pt != nil {
		n += partitionBytes + cap(e.pt.Areas)*memoAreaBytes
	}
	return n
}

// memoGen is one generation of the memo.
type memoGen struct {
	entries map[uint64]memoEntry
	bytes   int
}

func newMemoGen() *memoGen {
	return &memoGen{entries: make(map[uint64]memoEntry)}
}

// take removes and returns the entry at k.
func (g *memoGen) take(k uint64) (memoEntry, bool) {
	e, ok := g.entries[k]
	if ok {
		delete(g.entries, k)
		g.bytes -= e.bytes()
	}
	return e, ok
}

// memo is an Input's bounded, concurrency-safe table of solved answers,
// keyed by the exact bits of p. Algorithm 1 is deterministic and every
// solve path is bit-identical to every other, so a hit returns exactly
// what a solve would. Eviction is by two generations: entries go into
// cur, and when cur would outgrow half the bound it becomes old and the
// previous old generation is dropped; a hit in old moves the entry back
// into cur. Both generations together therefore never exceed the bound.
type memo struct {
	mu       sync.Mutex
	cur, old *memoGen
	bound    int // the byte bound, fixed at construction

	hits, misses atomic.Int64
}

func (m *memo) init(bound int) {
	m.bound = bound
	m.cur, m.old = newMemoGen(), newMemoGen()
}

// get returns the memoized answer at p. With wantPt only an entry that
// holds a partition answers; a summary-only entry is a miss.
func (m *memo) get(p float64, wantPt bool) (memoEntry, bool) {
	k := math.Float64bits(p)
	m.mu.Lock()
	e, ok := m.cur.entries[k]
	if !ok {
		if e, ok = m.old.take(k); ok {
			m.insertLocked(k, e)
		}
	}
	m.mu.Unlock()
	if !ok || (wantPt && e.pt == nil) {
		m.misses.Add(1)
		return memoEntry{}, false
	}
	m.hits.Add(1)
	return e, true
}

// put memoizes the answer at p. A summary never replaces a stored
// partition.
func (m *memo) put(p float64, e memoEntry) {
	k := math.Float64bits(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	prev, ok := m.cur.take(k)
	if !ok {
		prev, ok = m.old.take(k)
	}
	if ok && prev.pt != nil && e.pt == nil {
		e = prev
	}
	m.insertLocked(k, e)
}

// insertLocked adds e to the current generation, rotating first when it
// would overflow its half of the bound. An entry bigger than one
// generation is not kept.
func (m *memo) insertLocked(k uint64, e memoEntry) {
	half := m.bound / 2
	b := e.bytes()
	if b > half {
		return
	}
	if m.cur.bytes+b > half {
		m.old, m.cur = m.cur, newMemoGen()
	}
	m.cur.entries[k] = e
	m.cur.bytes += b
}

// size returns the memo's estimated resident bytes.
func (m *memo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.bytes + m.old.bytes
}

// MemoStats describes an Input's memo of solved answers.
type MemoStats struct {
	// Hits and Misses count per-p lookups answered and not answered by
	// the memo since the Input was built.
	Hits, Misses int64
	// Entries and Bytes describe what the memo holds now; Bytes is part
	// of MemoryBytes and never exceeds CapBytes.
	Entries         int
	Bytes, CapBytes int
}

// MemoStats returns the memo's counters and current size.
func (in *Input) MemoStats() MemoStats {
	m := &in.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{
		Hits:     m.hits.Load(),
		Misses:   m.misses.Load(),
		Entries:  len(m.cur.entries) + len(m.old.entries),
		Bytes:    m.cur.bytes + m.old.bytes,
		CapBytes: m.bound,
	}
}

// SolveContext answers one Algorithm 1 query at p through the Input's
// memo: a memoized partition is returned as-is, otherwise a new Solver
// runs RunContext (a one-lane block of the kernel) and the partition is
// memoized. The returned
// partition may be shared with other callers and must not be mutated.
// An already-cancelled ctx returns ctx.Err() even when p is memoized; on
// a miss ctx rides into the wait for a solve slot and the solve, so a
// dead caller neither queues for scratch nor finishes a run nobody will
// read.
//
// A p the memo holds only as a sweep summary still runs the solve, so a
// per-p answer never reads back a fused sweep's result.
func (in *Input) SolveContext(ctx context.Context, p float64) (*partition.Partition, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e, ok := in.memo.get(p, true); ok {
		return e.pt, nil
	}
	pt, err := in.NewSolver().RunContext(ctx, p)
	if err != nil {
		return nil, err
	}
	in.memo.put(p, memoEntry{pt: pt})
	return pt, nil
}
