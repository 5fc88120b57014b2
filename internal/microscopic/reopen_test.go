package microscopic

import (
	"math/rand"
	"os"
	"testing"

	"ocelotl/internal/eventstore"
)

// keptDiskReslicer builds a disk-backed index with a durable store file
// and returns the reslicer and the store path.
func keptDiskReslicer(t *testing.T, rng *rand.Rand) (*Reslicer, string) {
	t.Helper()
	tr := randomTrace(rng, 6, 900, 25)
	opt := IndexOptions{
		Mode:      IndexDisk,
		Dir:       t.TempDir(),
		KeepStore: true,
		Store:     eventstore.Options{TargetChunkEvents: 32},
	}
	r, err := NewReslicerIndexed(TraceSource(tr), opt)
	if err != nil {
		t.Fatalf("NewReslicerIndexed(disk, keep): %v", err)
	}
	path := r.StorePath()
	if path == "" {
		t.Fatal("disk reslicer reports no store path")
	}
	return r, path
}

// TestReopenedStoreBitIdentical is the restart contract: a reslicer
// reopened from the sealed store file produces models bit-identical to
// the one that built it, across builds, pans, and zooms.
func TestReopenedStoreBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	built, path := keptDiskReslicer(t, rng)
	defer built.Close()

	// KeepStore means Close leaves the file; reopen works on a live file
	// too (simulating scrub or a second boot against the same sidecar).
	reopened, err := OpenReslicerStore(path, IndexOptions{KeepStore: true})
	if err != nil {
		t.Fatalf("OpenReslicerStore: %v", err)
	}
	defer reopened.Close()

	if built.NumEvents() != reopened.NumEvents() {
		t.Fatalf("event counts %d (built) vs %d (reopened)", built.NumEvents(), reopened.NumEvents())
	}
	if got, want := reopened.IndexKind(), "disk"; got != want {
		t.Fatalf("IndexKind = %q, want %q", got, want)
	}
	bs, be := built.TraceWindow()
	rs, re := reopened.TraceWindow()
	if bs != rs || be != re {
		t.Fatalf("trace windows diverge: [%g,%g] vs [%g,%g]", bs, be, rs, re)
	}

	mA, err := built.Build(Options{Slices: 14})
	if err != nil {
		t.Fatal(err)
	}
	mB, err := reopened.Build(Options{Slices: 14})
	if err != nil {
		t.Fatalf("reopened Build: %v", err)
	}
	modelsBitIdentical(t, mB, mA, "reopened initial build")

	for step := 0; step < 20; step++ {
		var ovA, ovB SliceOverlap
		switch rng.Intn(3) {
		case 0:
			k := rng.Intn(9) - 4
			mA, ovA = mustShift(t, built, mA, k)
			mB, ovB, err = reopened.Shift(mB, k)
		case 1:
			lo := rng.Intn(10)
			hi := lo + 1 + rng.Intn(13-lo)
			mA, ovA, err = built.Zoom(mA, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			mB, ovB, err = reopened.Zoom(mB, lo, hi)
		default:
			lo := rng.Float64() * 20
			hi := lo + 1 + rng.Float64()*10
			sl := mustSlicer(t, lo, hi, mA.Slicer.N)
			mA = mustBuildAt(t, built, sl)
			mB, err = reopened.BuildAt(sl)
		}
		if err != nil {
			t.Fatalf("step %d: reopened op: %v", step, err)
		}
		if ovA != ovB {
			t.Fatalf("step %d: overlaps diverge: %+v vs %+v", step, ovA, ovB)
		}
		modelsBitIdentical(t, mB, mA, "reopened after step")
	}
}

// TestKeepStoreSurvivesClose: with KeepStore the file outlives the
// reslicer (the durable-sidecar mode); without it Close removes the file
// (the load-time-temporary mode, unchanged).
func TestKeepStoreSurvivesClose(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	kept, path := keptDiskReslicer(t, rng)
	if err := kept.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("KeepStore store vanished on Close: %v", err)
	}

	reopened, err := OpenReslicerStore(path, IndexOptions{})
	if err != nil {
		t.Fatalf("OpenReslicerStore after Close: %v", err)
	}
	if n, err := reopened.VerifyIndex(); err != nil || n == 0 {
		t.Fatalf("VerifyIndex: n=%d err=%v", n, err)
	}
	// Reopened without KeepStore the store is a temporary again.
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("store should be removed when reopened without KeepStore: %v", err)
	}
}

// TestVerifyIndexRAMIsNoop: the scrub path is well-defined for RAM
// backends — nothing on disk, zero chunks verified.
func TestVerifyIndexRAMIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tr := randomTrace(rng, 4, 200, 10)
	r, err := NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if p := r.StorePath(); p != "" {
		t.Fatalf("RAM reslicer reports store path %q", p)
	}
	if n, err := r.VerifyIndex(); n != 0 || err != nil {
		t.Fatalf("RAM VerifyIndex: n=%d err=%v", n, err)
	}
}
