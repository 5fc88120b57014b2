package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// smokeSizes shrinks each workload to a run of a second or two.
func smokeSizes(t *testing.T, workload string) Sizes {
	t.Helper()
	switch workload {
	case "explore":
		return Sizes{Scale: 0.02, Slices: 20, SetupReps: 1, Requests: 60, Levels: 9}
	case "sweep":
		return Sizes{Scale: 0.02, Slices: 20, SetupReps: 1, Requests: 12, SweepWindows: 2, SweepPs: 16}
	case "follow":
		return Sizes{Scale: 0.02, Slices: 30, SetupReps: 1, Batches: 20, AppendEvents: 4000,
			IntervalMs: 37, PollMs: 50, LiveSpan: 4, HistorySpan: 16}
	}
	t.Fatalf("unknown workload %q", workload)
	return Sizes{}
}

func genPlan(t *testing.T, workload string, seed int64) (string, *Plan) {
	t.Helper()
	dir := t.TempDir()
	pl, err := generate(dir, workload, seed, smokeSizes(t, workload))
	if err != nil {
		t.Fatal(err)
	}
	return dir, pl
}

// declared returns the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if key == "per_layer" {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func checkNames(t *testing.T, key string, metrics map[string]Metric) {
	t.Helper()
	var got []string
	for name := range metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	if want := declared(t, key); !reflect.DeepEqual(got, want) {
		t.Errorf("reported metrics differ from BENCHMARK.json %s:\ngot  %v\nwant %v", key, got, want)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range []string{"explore", "sweep", "follow"} {
		t.Run(w, func(t *testing.T) {
			dirA, a := genPlan(t, w, 7)
			dirB, b := genPlan(t, w, 7)
			_, c := genPlan(t, w, 8)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed produced different plans")
			}
			for _, f := range []string{traceFile, planFile} {
				x, err := os.ReadFile(filepath.Join(dirA, f))
				if err != nil {
					t.Fatal(err)
				}
				y, err := os.ReadFile(filepath.Join(dirB, f))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(x, y) {
					t.Fatalf("same seed wrote different %s", f)
				}
			}
			if reflect.DeepEqual(a.Requests, c.Requests) {
				t.Fatal("different seeds produced the same request sequence")
			}
			if len(a.Requests) != len(c.Requests) || a.Batch != c.Batch {
				t.Fatal("the seed changed how much work a run does")
			}
		})
	}
}

// The explore walk is planned against a model of the daemon's cache, so
// its build paths must come out the same on every run of one seed.
func TestExploreBuildKindsRepeat(t *testing.T) {
	dir, pl := genPlan(t, "explore", 3)
	kinds := func() []string {
		w, err := newWorkload(dir, pl)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if _, _, err := w.setup(); err != nil {
			t.Fatal(err)
		}
		p, err := w.measure(nil)
		if err != nil {
			t.Fatal(err)
		}
		return p.class
	}
	first, second := kinds(), kinds()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("build kinds differ between runs:\n%v\n%v", first, second)
	}
	seen := map[string]int{}
	for _, k := range first {
		seen[k]++
	}
	for _, k := range cacheKinds {
		if seen[k] == 0 {
			t.Errorf("walk produced no %s requests: %v", k, seen)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range []string{"explore", "sweep", "follow"} {
		t.Run(w, func(t *testing.T) {
			dir, pl := genPlan(t, w, 1)
			res, err := runEndToEnd(dir, pl)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("oracle failed: %+v", res)
			}
			checkNames(t, "end_to_end", res.Metrics)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range []string{"explore", "sweep", "follow"} {
		t.Run(w, func(t *testing.T) {
			dir, pl := genPlan(t, w, 1)
			res, tr, err := runTraced(dir, pl)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("oracle failed: %+v", res)
			}
			checkNames(t, "per_layer", res.Metrics)
			if got := res.Metrics["trace.replay_mismatch"].Value; got != 0 {
				t.Errorf("%v replayed bodies differ from the daemon's", got)
			}
			if len(tr.Spans()) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if w != "follow" && res.Metrics["eventstore.chunks_read"].Value != 0 {
				t.Errorf("%s read event-store chunks", w)
			}
		})
	}
}
