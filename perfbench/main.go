// Command perfbench is the end-to-end benchmark of the ocelotld serving
// stack. It drives an in-process server.New over loopback HTTP with a
// seeded, count-bounded workload, checks the answers against oracles,
// and prints every metric with its unit; the last line of standard output
// is the JSON result.
//
//	perfbench gen -workload explore -seed 1 -seconds 10 -dir work
//	perfbench run -workload explore -seed 1 -seconds 10 -dir work -trace 0
//
// gen writes the simulated trace and the request plan into -dir, in its
// own process so the generator's memory stays out of rss_peak_mb. run
// replays them: with -trace 0 it reports the end-to-end metrics, with
// -trace 1 the per-layer metrics of a traced pass (spans are written to
// -out). perfbench/run.py builds the binary and runs both steps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ocelotl/internal/traceio"
)

func main() {
	if len(os.Args) < 2 || (os.Args[1] != "gen" && os.Args[1] != "run") {
		fmt.Fprintln(os.Stderr, "usage: perfbench gen|run -workload W -seed N -seconds S -dir D [-trace 0|1] [-out DIR] [-commit C]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	workload := fs.String("workload", "", "explore, sweep or follow")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "run length; request and batch counts scale with it")
	dir := fs.String("dir", "", "work directory for the generated inputs")
	traced := fs.Int("trace", 0, "1: traced pass reporting per-layer metrics")
	out := fs.String("out", "", "directory for the span file of a traced run")
	commit := fs.String("commit", "unknown", "source revision, for provenance")
	fs.Parse(os.Args[2:])
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}
	sz, err := sizesFor(*workload, *seconds)
	if err != nil {
		fatal(err)
	}
	if os.Args[1] == "gen" {
		if _, err := generate(*dir, *workload, *seed, sz); err != nil {
			fatal(err)
		}
		return
	}
	pl, err := loadPlan(*dir)
	if err != nil {
		fatal(err)
	}
	if pl.Workload != *workload || pl.Seed != *seed || pl.Sizes != sz {
		fatal(fmt.Errorf("plan in %s was generated for another workload, seed or length", *dir))
	}
	prov := provenance(*workload, *seed, *seconds, *traced == 1, *commit)
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))
	var res *Result
	if *traced == 1 {
		var tr *Tracer
		res, tr, err = runTraced(*dir, pl)
		if err == nil && *out != "" {
			err = tr.WriteFile(filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed)), prov)
		}
	} else {
		res, err = runEndToEnd(*dir, pl)
	}
	if err != nil {
		fatal(err)
	}
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// Provenance stamps every output with what produced it.
type Provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func provenance(workload string, seed int64, seconds int, traced bool, commit string) Provenance {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return Provenance{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, CPU: cpu,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit}
}

// workload is one benchmark workload's life cycle.
type workload interface {
	// setup starts a fresh daemon with the trace loaded and warmed, and
	// returns the set-up time and any freshness-lag samples it measured.
	setup() (time.Duration, []time.Duration, error)
	// measure runs the measured pass; tr is nil for an untraced pass.
	measure(tr *Tracer) (*phase, error)
	// oracle checks the pass's answers and reports checks made and failed.
	oracle(p *phase) (checked, failed int, err error)
	// replay re-runs the traced pass's layer calls under spans and returns
	// the workload's own per-layer metrics.
	replay(tr *Tracer, p *phase) (map[string]Metric, error)
	close()
}

func newWorkload(dir string, pl *Plan) (workload, error) {
	switch pl.Workload {
	case "explore":
		return &exploreRun{batchRun{dir: dir, pl: pl}}, nil
	case "sweep":
		return &sweepRun{batchRun{dir: dir, pl: pl}}, nil
	case "follow":
		return newFollowRun(dir, pl)
	}
	return nil, fmt.Errorf("unknown workload %q", pl.Workload)
}

// runEndToEnd sets up Sizes.SetupReps fresh daemons — half before the
// measured pass, half after it, so set-up time (their median) averages
// over the whole run rather than one moment of it — measures an untraced
// pass on the last daemon set up before it, and runs the oracle. A first,
// unrecorded set-up pays the process's own warm-up (heap growth), which a
// daemon pays once per process, not per load.
func runEndToEnd(dir string, pl *Plan) (*Result, error) {
	w, err := newWorkload(dir, pl)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if _, _, err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var setups, lags []time.Duration
	setupReps := func(n int) error {
		for i := 0; i < n; i++ {
			w.close()
			d, lag, err := w.setup()
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups, lags = append(setups, d), append(lags, lag...)
		}
		return nil
	}
	before := (pl.Sizes.SetupReps + 1) / 2
	if err := setupReps(before); err != nil {
		return nil, err
	}
	resetPeakRSS()
	p, err := w.measure(nil)
	if err != nil {
		return nil, err
	}
	checked, bad, err := w.oracle(p)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := setupReps(pl.Sizes.SetupReps - before); err != nil {
		return nil, err
	}
	classes := map[string]int{}
	for _, c := range p.class {
		classes[c]++
	}
	fmt.Fprintf(os.Stderr, "perfbench: requests by class %v; set-ups %v; load lags %v; oracle %d/%d checks passed\n",
		classes, setups, lags, checked-bad, checked)
	if p.lags != nil {
		lags = p.lags
	}
	failed := min(p.failed+bad, p.attempted())
	return &Result{Correct: failed == 0, Attempted: p.attempted(), Failed: failed,
		Metrics: endToEnd(p, setups, lags, failed)}, nil
}

// runTraced measures an untraced pass (the overhead baseline), then a
// traced pass on a fresh daemon, runs the oracle and the layer replay,
// and derives the per-layer metrics from the spans and counters.
func runTraced(dir string, pl *Plan) (*Result, *Tracer, error) {
	w, err := newWorkload(dir, pl)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	if _, _, err := w.setup(); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	base, err := w.measure(nil)
	if err != nil {
		return nil, nil, err
	}
	w.close()

	tr := newTracer()
	if _, err := tr.Time("traceio.read", 0, -1, func() error {
		_, err := traceio.ReadFile(filepath.Join(dir, traceFile))
		return err
	}); err != nil {
		return nil, nil, err
	}
	if _, _, err := w.setup(); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	p, err := w.measure(tr)
	if err != nil {
		return nil, nil, err
	}
	_, bad, err := w.oracle(p)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: %w", err)
	}
	w.close()
	extra, err := w.replay(tr, p)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	m := layerMetrics(tr, p)
	for k, v := range extra {
		m[k] = v
	}
	m["trace.untraced_rps"] = Metric{base.throughput(), "1/s"}
	m["trace.traced_rps"] = Metric{p.throughput(), "1/s"}
	m["trace.overhead_frac"] = Metric{1 - p.throughput()/base.throughput(), "frac"}
	failed := min(p.failed+bad, p.attempted())
	return &Result{Correct: failed == 0, Attempted: p.attempted(), Failed: failed, Metrics: m}, tr, nil
}
