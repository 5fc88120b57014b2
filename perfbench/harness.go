package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ocelotl/internal/server"
)

// traceID is the id every workload loads its trace under.
const traceID = "t"

// daemon is one in-process server.New behind a loopback HTTP listener.
type daemon struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startDaemon(cfg server.Config) *daemon {
	// The daemon's request log is part of its serving path; keep it
	// enabled at warning level so it stays off the benchmark's stdout.
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	return &daemon{srv: srv, ts: ts, client: ts.Client()}
}

// close stops the listener, any followers and every loaded index, and
// collects their memory so the next set-up starts from the same heap.
func (d *daemon) close() {
	d.ts.Close()
	d.srv.StopFollowers()
	d.srv.Registry().CloseAll()
	runtime.GC()
}

// response is one answered request. body aliases the caller's buffer.
type response struct {
	status   int
	kind     string // X-Ocelotl-Build
	buildUs  int64  // X-Ocelotl-Build-Us
	degraded string // X-Ocelotl-Degraded
	body     []byte
}

func (d *daemon) get(path string, buf *bytes.Buffer) (response, error) {
	resp, err := d.client.Get(d.ts.URL + path)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return response{}, err
	}
	us, _ := strconv.ParseInt(resp.Header.Get("X-Ocelotl-Build-Us"), 10, 64)
	return response{
		status:   resp.StatusCode,
		kind:     resp.Header.Get("X-Ocelotl-Build"),
		buildUs:  us,
		degraded: resp.Header.Get("X-Ocelotl-Degraded"),
		body:     buf.Bytes(),
	}, nil
}

// ok reports whether a query answered in full: 200, a build path, and not
// a degraded preview.
func (r response) ok() bool { return r.status == http.StatusOK && r.kind != "" && r.degraded == "" }

// load POSTs /traces and waits for the 201.
func (d *daemon) load(body map[string]any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := d.client.Post(d.ts.URL+"/traces", "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("loading trace: %d %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// loadBatch loads a complete trace file and returns its freshness lag:
// from the load request until the registry publishes the trace, polled
// through Registry().Get — the batch form of follow's per-batch lag.
func (d *daemon) loadBatch(path string) (time.Duration, error) {
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- d.load(map[string]any{"id": traceID, "path": path}) }()
	var lag time.Duration
	for {
		if lag == 0 {
			if _, ok := d.srv.Registry().Get(traceID); ok {
				lag = time.Since(start)
			}
		}
		select {
		case err := <-done:
			if err == nil && lag == 0 {
				lag = time.Since(start)
			}
			return lag, err
		case <-time.After(lagPoll):
		}
	}
}

// lagPoll is how often freshness is polled; lags are quantized to it.
const lagPoll = 250 * time.Microsecond

// resetPeakRSS restarts the kernel's peak-RSS counter so rss_peak_mb
// covers only the measured phase plus what set-up left resident.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: Linux only
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// quantile is the linearly interpolated q-quantile of xs (sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// phase is what one measured pass observed.
type phase struct {
	lat     []time.Duration // per answered request, in order
	class   []string        // per request: the class unattributed time is split by
	kind    []string        // per request: X-Ocelotl-Build
	crc     []uint32        // per request body, traced passes only
	reqSpan []int           // per request: root span id, traced passes only
	plan    []int           // per request: index into Plan.Requests
	failed  int
	elapsed time.Duration
	rssMB   float64
	before  server.StatsSnapshot
	after   server.StatsSnapshot

	// follow only
	lags, late []time.Duration
	batches    int
}

func (p *phase) attempted() int { return len(p.lat) + p.batches }

func (p *phase) throughput() float64 { return float64(len(p.lat)) / p.elapsed.Seconds() }

// endToEnd returns the end-to-end metrics of a measured phase.
func endToEnd(p *phase, setups, lags []time.Duration, failed int) map[string]Metric {
	lat := msAll(p.lat)
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	lagMs := msAll(lags)
	return map[string]Metric{
		"setup_s":        {quantile(setupS, 0.5), "s"},
		"p50_ms":         {quantile(lat, 0.5), "ms"},
		"p90_ms":         {quantile(lat, 0.9), "ms"},
		"throughput_rps": {p.throughput(), "1/s"},
		"rss_peak_mb":    {p.rssMB, "MB"},
		"ok_frac":        {1 - float64(failed)/float64(max(1, p.attempted())), "frac"},
		"lag_p50_ms":     {quantile(lagMs, 0.5), "ms"},
		"lag_p90_ms":     {quantile(lagMs, 0.9), "ms"},
	}
}
