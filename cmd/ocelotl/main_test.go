package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// testLoadModel adapts loadModel to the pre-index test call shape: auto
// mode, cleanup registered on the test.
func testLoadModel(t *testing.T, tracePath, caseName string, scale float64, seed int64, slices int, from, to float64, indexed bool) (*microscopic.Model, error) {
	t.Helper()
	m, cleanup, err := loadModel(tracePath, caseName, scale, seed, slices, from, to, indexed, microscopic.IndexAuto)
	t.Cleanup(cleanup)
	return m, err
}

func TestLoadModelFromCase(t *testing.T) {
	m, err := testLoadModel(t, "", "A", 0.002, 1, 10, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumResources() != 64 || m.NumSlices() != 10 {
		t.Errorf("dims: %d resources, %d slices", m.NumResources(), m.NumSlices())
	}
}

func TestLoadModelFromFile(t *testing.T) {
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 1, EventTarget: 5000})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.bin")
	if err := traceio.WriteFile(path, res.Trace); err != nil {
		t.Fatal(err)
	}
	m, err := testLoadModel(t, path, "", 0, 0, 15, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumResources() != 64 || m.NumSlices() != 15 {
		t.Errorf("dims: %d resources, %d slices", m.NumResources(), m.NumSlices())
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := testLoadModel(t, "", "", 0, 0, 10, 0, 1, false); err == nil {
		t.Error("no source accepted")
	}
	if _, err := testLoadModel(t, "x.bin", "A", 0, 0, 10, 0, 1, false); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := testLoadModel(t, filepath.Join(t.TempDir(), "missing.bin"), "", 0, 0, 10, 0, 1, false); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := testLoadModel(t, "", "Q", 0.01, 0, 10, 0, 1, false); err == nil {
		t.Error("unknown case accepted")
	}
}

func TestLoadModelZoom(t *testing.T) {
	// Zooming into the case-A computation phase: the model window must
	// cover exactly the requested fraction.
	m, err := testLoadModel(t, "", "A", 0.005, 1, 10, 0.25, 0.75, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Slicer.Start < 2.3 || m.Slicer.Start > 2.45 || m.Slicer.End < 7.0 || m.Slicer.End > 7.2 {
		t.Errorf("zoom window = [%g,%g), want ≈[2.375,7.125)", m.Slicer.Start, m.Slicer.End)
	}
	for _, bad := range [][2]float64{{-0.1, 1}, {0, 1.1}, {0.6, 0.4}, {0.5, 0.5}} {
		if _, err := testLoadModel(t, "", "A", 0.005, 1, 10, bad[0], bad[1], false); err == nil {
			t.Errorf("zoom window %v accepted", bad)
		}
	}
}

func TestRunModeAll(t *testing.T) {
	m, err := testLoadModel(t, "", "A", 0.002, 1, 10, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInputContext(context.Background(), m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"st", "spatial", "temporal", "product"} {
		pt, err := runMode(context.Background(), m, in, mode, 0.4)
		if err != nil {
			t.Errorf("mode %s: %v", mode, err)
			continue
		}
		if err := pt.Validate(m.H, m.NumSlices()); err != nil {
			t.Errorf("mode %s: invalid partition: %v", mode, err)
		}
	}
	if _, err := runMode(context.Background(), m, in, "bogus", 0.4); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestLoadModelIndexed(t *testing.T) {
	m, err := testLoadModel(t, "", "A", 0.002, 1, 10, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reslicer() == nil {
		t.Fatal("indexed load did not attach a reslicer")
	}
	// And the streaming path too.
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 1, EventTarget: 4000})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.bin")
	if err := traceio.WriteFile(path, res.Trace); err != nil {
		t.Fatal(err)
	}
	m, err = testLoadModel(t, path, "", 0, 0, 12, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reslicer() == nil {
		t.Fatal("indexed stream load did not attach a reslicer")
	}
}

func TestReplayWindow(t *testing.T) {
	m, err := testLoadModel(t, "", "A", 0.002, 1, 10, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInputContext(context.Background(), m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	out, err := replayWindow(context.Background(), &log, in, "2:7,0:9", "1,1,-3")
	if err != nil {
		t.Fatal(err)
	}
	if out == in || out.Model == m {
		t.Fatal("replay did not move the window")
	}
	lines := strings.Count(log.String(), "\n")
	if lines != 5 {
		t.Fatalf("replay logged %d steps, want 5:\n%s", lines, log.String())
	}
	if !strings.Contains(log.String(), "reused 9/10 slices") {
		t.Errorf("pan step did not report slice reuse:\n%s", log.String())
	}
	// The replayed input answers queries like a fresh one on its window.
	fm, err := m.Reslicer().BuildAt(out.Model.Slicer)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewInputContext(context.Background(), fm, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := out.NewSolver().RunContext(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.NewSolver().RunContext(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Signature() != b.Signature() {
		t.Error("replayed input disagrees with a fresh build on the final window")
	}

	for _, bad := range []struct{ zoom, pan string }{
		{"2", ""}, {"a:b", ""}, {"", "x"}, {"3:1", ""},
	} {
		if _, err := replayWindow(context.Background(), &log, in, bad.zoom, bad.pan); err == nil {
			t.Errorf("replay accepted zoom=%q pan=%q", bad.zoom, bad.pan)
		}
	}
}

// TestLoadModelDiskIndex forces -index=disk through both load paths and
// checks the disk backend answers the replay engine identically to RAM.
func TestLoadModelDiskIndex(t *testing.T) {
	ramM, ramClean, err := loadModel("", "A", 0.002, 1, 10, 0, 1, true, microscopic.IndexRAM)
	if err != nil {
		t.Fatal(err)
	}
	defer ramClean()
	diskM, diskClean, err := loadModel("", "A", 0.002, 1, 10, 0, 1, true, microscopic.IndexDisk)
	if err != nil {
		t.Fatal(err)
	}
	defer diskClean()
	if kind := diskM.Reslicer().IndexKind(); kind != "disk" {
		t.Fatalf("forced disk index reports kind %q", kind)
	}
	var ramLog, diskLog bytes.Buffer
	ramIn, err := core.NewInputContext(context.Background(), ramM, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ramIn, err = replayWindow(context.Background(), &ramLog, ramIn, "2:7", "1,-2"); err != nil {
		t.Fatal(err)
	}
	diskIn, err := core.NewInputContext(context.Background(), diskM, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diskIn, err = replayWindow(context.Background(), &diskLog, diskIn, "2:7", "1,-2"); err != nil {
		t.Fatal(err)
	}
	a, err := ramIn.NewSolver().RunContext(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := diskIn.NewSolver().RunContext(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Signature() != b.Signature() {
		t.Error("disk-indexed replay disagrees with RAM-indexed replay")
	}
}

// TestRunFollow drives `ocelotl -follow` against a writer flushing a
// binary trace in batches, one of them out of order. The last tick line
// must report every event, and its window, area count, gain and loss must
// equal a batch aggregation of the same events over the same window: the
// last N slices of the header's grid that end at or below the maximum
// event start.
func TestRunFollow(t *testing.T) {
	const slices, p = 10, 0.35
	hdr := traceio.Header{Resources: []string{"A/a0", "A/a1", "B/b0"},
		States: []string{"run", "wait"}, Start: 0, End: 10}
	var all []trace.Event
	for i := 0; i < 400; i++ {
		s := float64(i) * 0.02
		all = append(all, trace.Event{Resource: trace.ResourceID(i % 3), State: trace.StateID(i % 2),
			Start: s, End: s + 0.05})
	}
	// The out-of-order batch: events starting well before the horizon
	// the first 200 events reached.
	late := []trace.Event{{Resource: 1, State: 1, Start: 1.01, End: 1.5}, {Resource: 2, State: 0, Start: 0.3, End: 0.9}}
	all = append(all[:200], append(late, all[200:]...)...)
	batches := [][]trace.Event{all[:80], all[80:160], all[160:200], late, all[202:300], all[300:]}

	path := filepath.Join(t.TempDir(), "live.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := traceio.NewWriter(f, traceio.FormatBinary, hdr)
	if err != nil {
		t.Fatal(err)
	}
	flush := func(evs []trace.Event) {
		for _, e := range evs {
			if err := w.WriteEvent(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := traceio.Flush(w); err != nil {
			t.Fatal(err)
		}
	}
	flush(batches[0])

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- runFollow(ctx, &out, path, slices, p, "st", false, microscopic.IndexAuto, 2*time.Millisecond, 300*time.Millisecond)
	}()
	for _, b := range batches[1:] {
		time.Sleep(20 * time.Millisecond)
		flush(b)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatal("runFollow ran until the test deadline instead of the idle timeout")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want the initial line and at least one tick line, got:\n%s", out.String())
	}

	horizon := 0.0
	for _, e := range all {
		horizon = max(horizon, e.Start)
	}
	anchor, err := timeslice.New(hdr.Start, hdr.End, slices)
	if err != nil {
		t.Fatal(err)
	}
	pan := -slices
	for anchor.Shift(pan+1).End <= horizon {
		pan++
	}
	r, err := microscopic.NewReslicer(&trace.Trace{Resources: hdr.Resources, States: hdr.States,
		Events: all, Start: hdr.Start, End: horizon})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.BuildAt(anchor.Shift(pan))
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInputContext(ctx, m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := in.NewSolver().RunContext(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	sl := m.Slicer
	want := fmt.Sprintf("events %9d  horizon %12.6g  window [%.6g,%.6g)  areas %4d  gain %12.4f  loss %12.4f",
		len(all), horizon, sl.Start, sl.End, len(pt.Areas), pt.Gain, pt.Loss)
	if last := lines[len(lines)-1]; !strings.HasSuffix(last, want) {
		t.Fatalf("last tick line\n%s\nwant it to end with\n%s", last, want)
	}
}

// TestFollowPollNonPositive: -follow-poll 0 (or below) is a usage error,
// exit status 2, before any trace is opened. The test binary re-runs
// itself with the command line after "--", which it passes to main.
func TestFollowPollNonPositive(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"ocelotl"}, args...)
		flag.CommandLine = flag.NewFlagSet("ocelotl", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	// A followable file, so that without the check the child would get
	// as far as its poll ticker.
	path := filepath.Join(t.TempDir(), "live.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := traceio.NewWriter(f, traceio.FormatBinary, traceio.Header{Resources: []string{"A/a0"},
		States: []string{"run"}, Start: 0, End: 10})
	if err == nil {
		err = w.WriteEvent(trace.Event{Start: 1, End: 2})
	}
	if err == nil {
		err = traceio.Flush(w)
	}
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, poll := range []string{"0", "-1s"} {
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFollowPollNonPositive$", "--",
			"-trace", path, "-follow", "-follow-poll", poll, "-follow-idle", "1ms")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-follow-poll %s: %v, want exit status 2 (stderr: %s)", poll, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-follow-poll must be positive") {
			t.Fatalf("-follow-poll %s: stderr %q does not name the flag", poll, stderr.String())
		}
	}
}
