package server

import (
	"math"
	"net/url"
	"testing"

	"ocelotl/internal/mpisim"
	"ocelotl/internal/timeslice"
)

// FuzzWindowQuery drives the query-string parsers with arbitrary input:
// windowFromQuery over a batch trace and over a followed one, and
// psParam. No input may panic. Every accepted window must be a real grid
// — finite lo < hi and 0 < N ≤ maxSlices — and on the followed trace it
// must not end past the ingestion horizon; an accepted p list holds 1 to
// maxQualityPs entries. The committed corpus under testdata/fuzz holds
// the far pans that once slipped through as infinite, empty or inverted
// windows.
func FuzzWindowQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"slices=20",
		"lo=2&hi=7&slices=64",
		"slices=20&pan=1",
		"slices=20&pan=-3",
		"live=1",
		"live=1&pan=2",
		"live=0&lo=1&hi=2",
		"live=maybe",
		"lo=1e16&hi=10000000000000002&slices=512&pan=-7",
		"lo=NaN",
		"hi=Inf",
		"lo=-1",
		"hi=0x1p-1074",
		"slices=0",
		"slices=513",
		"ps=0.1,0.5",
		"ps=,",
		"ps=NaN,1e400,-0",
	} {
		f.Add(seed)
	}
	reg := NewRegistry()
	batch, err := reg.LoadTrace("art", mpisim.ArtificialSized(4, 10))
	if err != nil {
		f.Fatal(err)
	}
	start, end := batch.resl.TraceWindow()
	anchor, err := timeslice.New(start, end, 8)
	if err != nil {
		f.Fatal(err)
	}
	horizon := start + (end-start)*0.6
	followed := &Trace{ID: "live", resl: batch.resl, follow: &followState{
		anchor: anchor, pan: sealedPan(anchor, horizon), horizon: horizon,
	}}
	finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as url.URL.Query: keep what parses
		for _, tr := range []*Trace{batch, followed} {
			sl, err := windowFromQuery(tr, q, DefaultMaxSlices)
			if err != nil {
				continue
			}
			if !finite(sl.Start) || !finite(sl.End) || !(sl.Start < sl.End) {
				t.Errorf("%s on %s: accepted window [%v, %v)", raw, tr.ID, sl.Start, sl.End)
			}
			if sl.N <= 0 || sl.N > DefaultMaxSlices {
				t.Errorf("%s on %s: accepted %d slices", raw, tr.ID, sl.N)
			}
			if tr.follow != nil && sl.End > tr.follow.horizon {
				t.Errorf("%s: accepted window end %v past the horizon %v", raw, sl.End, tr.follow.horizon)
			}
		}
		if ps, err := psParam(q.Get("ps")); err == nil && (len(ps) == 0 || len(ps) > maxQualityPs) {
			t.Errorf("%s: accepted %d ps", raw, len(ps))
		}
	})
}
