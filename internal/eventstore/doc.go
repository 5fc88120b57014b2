// Package eventstore is the out-of-core event index: a chunked,
// per-series, time-ordered on-disk layout for the event sets that back
// interactive windowing, built once at trace load and read in O(window)
// chunks per fill instead of O(trace) RAM.
//
// The in-RAM index of microscopic.Reslicer costs ~28 bytes per event,
// which caps interactive windowing far below the trace sizes exascale
// tooling produces. This package trades that residency for a single
// store file:
//
//   - the builder streams events through a bounded-memory external sort
//     (spilled sorted runs, stable k-way merge), so multi-gigabyte traces
//     index in O(sort buffer) RAM. Each buffer is ordered by a stable
//     counting sort into per-series buckets, and only a bucket whose
//     starts arrived out of order is then stable-sorted by start, so a
//     time-ordered trace (every series in start order, the series
//     interleaved) orders in linear time;
//   - events land in chunks of one series (resource) each, sorted by
//     start time, with XOR-delta-encoded float64 timestamps (close
//     timestamps share their high bits, so deltas varint-encode small);
//   - a directory of (series, time-range, checksum) chunk footers lets a
//     window fill seek straight to the chunks overlapping the changed
//     slices — one binary search per series, like the in-RAM index's
//     running-max-end column, lifted to chunk granularity;
//   - reads go through explicit block reads (pread) plus a byte-budgeted
//     cache of decoded chunks, so repeated fills over a hot window do not
//     re-decode.
//
// Iteration order is the contract: ForEachOverlapping visits exactly the
// events the in-RAM index would visit, in the same stable
// (start, original-order) sort, so a fill through either index
// accumulates bit-identical floats. The property tests in package
// microscopic enforce this across random Build/Shift/Zoom sequences.
//
// Layering: eventstore sits below microscopic — it knows nothing about
// hierarchies, slicers or models, only (series, state, start, end)
// tuples keyed by opaque series numbers. microscopic.Reslicer adapts it
// as one of its two index backends (the other being the in-RAM
// struct-of-arrays), and everything above (core, server, the CLIs)
// selects a backend without seeing this package.
//
// A store file is sealed: chunks are immutable once the builder commits
// the directory, which is what makes CRC-per-chunk durability and
// lock-free concurrent reads cheap. Live ingestion (follow mode) does
// not break that seal — microscopic.Reslicer.Extend layers a RAM
// overlay of the appended events over the sealed store and merges the
// two streams in the contract order at read time, so the disk backend
// serves a growing trace without rewriting a byte of the store file.
//
// Durability: every open validates the header magic/version and the
// directory+meta checksum, and every chunk read validates its CRC;
// truncated files, flipped bytes and version skew all fail loud with
// IsCorrupt-classifiable errors instead of feeding garbage to the
// aggregation.
package eventstore
