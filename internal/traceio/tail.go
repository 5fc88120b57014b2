package traceio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"ocelotl/internal/failpoint"
)

// ErrIncomplete marks trace data that ends cleanly but mid-record: the
// writer simply has not flushed the rest yet. It is the retryable
// counterpart to CorruptError — a tail reader that hits it should poll
// again, while corrupt data never repairs itself. Test with IsIncomplete
// (or errors.Is); the sentinel may arrive wrapped with path context.
var ErrIncomplete = errors.New("traceio: incomplete trailing data")

// IsIncomplete reports whether err marks a retryable torn/partial tail
// (more data may arrive) as opposed to corruption or an I/O failure.
func IsIncomplete(err error) bool { return errors.Is(err, ErrIncomplete) }

// FailpointTail names the fault-injection site on the tail reader's
// refill path — one injection point per read of the underlying file,
// whether a write woke the follower or its poll came due (chaos tests
// for live ingestion).
const FailpointTail = "traceio/tail"

// FailpointWatch names the fault-injection site on the file watch's
// set-up: an injected error leaves the tail without a watch (Changed is
// nil), so its follower falls back to polling.
const FailpointWatch = "traceio/watch"

// wakeSpacing is the shortest time between two wakes a file watch
// delivers: a writer that flushes continuously wakes its follower at most
// once per spacing, so the follower's loop cannot turn into a busy spin.
const wakeSpacing = time.Millisecond

// TailReader follows a trace file that is still being written. It is the
// batch Reader's record reader over a different byte source: it reads
// the file with ReadAt from the committed offset, and the end of the file
// is never final. Next returns ErrIncomplete when the flushed bytes end
// mid-record (or exactly at a record boundary), and a later call re-polls
// the file and picks up whatever the writer has flushed since. So a final
// CSV line without '\n' waits for its '\n', and a binary record cut at
// the end of the file waits for its remaining bytes; the batch reader
// decodes the first and rejects the second as corrupt. Everything else —
// header and event decoding, range checks, the CSV line cap — is the same
// code: undecodable bytes are a CorruptError carrying the byte offset
// (binary) or line number (CSV), so callers can tell "wait" from "give up".
//
// Only uncompressed files can be followed: a gzip stream's trailing
// checksum makes "more data later" unrepresentable mid-stream.
//
// Offset reports the committed byte offset — the position after the last
// fully decoded record — which OpenTailAt accepts to resume a follow
// after a restart without re-reading the prefix. For CSV the offset is
// always a line boundary. Window is the header's declared window: for a
// live trace its end is the writer's plan, not what has been ingested.
//
// Changed wakes the follower when the writer appends, once Watch has set
// up a watch on the file (on Linux an inotify watch, ended by Close). It
// is nil until then and where the watch could not be set up, and a
// follower then only polls. A wake says the file changed, not that a
// whole record arrived, and wakes coalesce: one pending wake stands for
// any number of writes, at most one per wakeSpacing.
//
// A TailReader is not safe for concurrent use; the channel Changed
// returns may be received from on any goroutine.
type TailReader struct {
	*records
	path  string
	watch *watcher
}

// OpenTail opens path for follow-mode reading. The header must already be
// complete on disk — for binary that means the string tables, for CSV the
// header lines up to and including the first "event" line (the only
// unambiguous signal that no more table lines follow). If the header is
// still partial the error satisfies IsIncomplete and the caller should
// retry; a present-but-garbage header is a CorruptError.
func OpenTail(path string) (*TailReader, error) { return openTail(path, -1) }

// OpenTailAt is OpenTail resuming from a committed byte offset previously
// reported by Offset. The header is re-read and validated first; offset
// must not point inside it. For CSV, line numbers in subsequent
// CorruptErrors are relative to the resume point.
func OpenTailAt(path string, offset int64) (*TailReader, error) {
	if offset < 0 {
		return nil, fmt.Errorf("traceio: %s: negative resume offset %d", path, offset)
	}
	return openTail(path, offset)
}

func openTail(path string, offset int64) (*TailReader, error) {
	if err := failpoint.Inject(FailpointOpen); err != nil {
		return nil, fmt.Errorf("traceio: %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := newRecords(func(p []byte, at int64) (int, error) {
		if err := failpoint.Inject(FailpointTail); err != nil {
			return 0, err
		}
		n, err := f.ReadAt(p, at)
		if n == 0 && err == io.EOF {
			err = ErrIncomplete
		}
		return n, err
	}, f)
	if err != nil {
		switch err {
		case ErrIncomplete:
			return nil, fmt.Errorf("traceio: %s: header: %w", path, err)
		case errGzip:
			return nil, fmt.Errorf("traceio: %s: cannot follow gzip-compressed traces (the trailing checksum makes a live tail unreadable)", path)
		}
		return nil, fmt.Errorf("traceio: %s: %w", path, err)
	}
	if offset >= 0 {
		if offset < r.off {
			r.Close()
			return nil, fmt.Errorf("traceio: %s: resume offset %d is inside the header (events start at byte %d)", path, offset, r.off)
		}
		r.lo, r.hi, r.off, r.line = 0, 0, offset, 0
	}
	return &TailReader{records: r, path: path}, nil
}

// Watch sets up the watch that feeds Changed; Close ends it. A write
// after Watch returns wakes Changed, so a follower calls it before the
// reads the wakes should follow, and only on a tail it keeps: each watch
// holds an OS instance (on Linux, one of the per-user inotify instances)
// and a goroutine. On error Changed stays nil and the follower polls.
// Watching a watched tail does nothing.
func (t *TailReader) Watch() error {
	if t.watch != nil {
		return nil
	}
	if err := failpoint.Inject(FailpointWatch); err != nil {
		return err
	}
	w, err := watch(t.path)
	if err != nil {
		return err
	}
	t.watch = w
	t.closers = append(t.closers, w)
	return nil
}

// Changed returns the channel a write to the file wakes, or nil when the
// file is not watched.
func (t *TailReader) Changed() <-chan struct{} {
	if t.watch == nil {
		return nil
	}
	return t.watch.c
}

// watcher turns the events an OS file watch reports into wakes on the
// one-slot channel c. Its goroutine blocks in a read of events or in the
// send of a wake, and Close ends either.
type watcher struct {
	c    chan struct{}
	f    *os.File // the watch's event stream, read through the runtime poller
	done chan struct{}
}

func newWatcher(f *os.File) *watcher {
	w := &watcher{c: make(chan struct{}, 1), f: f, done: make(chan struct{})}
	go w.run()
	return w
}

// run reads batches of events until the watch is closed. What a batch
// holds does not matter, only that it arrived: it becomes one wake. While
// a wake is pending the goroutine waits for the follower to take it
// rather than read on, so a resting follower is not woken by each write
// (the kernel queues the events, and merges repeats, meanwhile); after a
// wake is sent the next read waits wakeSpacing.
func (w *watcher) run() {
	defer close(w.done)
	buf := make([]byte, 4096)
	for {
		if _, err := w.f.Read(buf); err != nil {
			return
		}
		w.c <- struct{}{}
		time.Sleep(wakeSpacing)
	}
}

// Close ends the watch and waits for its goroutine, taking the wakes it
// is blocked sending.
func (w *watcher) Close() error {
	err := w.f.Close()
	for {
		select {
		case <-w.done:
			return err
		case <-w.c:
		}
	}
}
