// Command ocelotl is the end-to-end analysis pipeline of the paper: read
// an execution trace, build its microscopic model, compute an optimal
// structure-consistent aggregation, and render or report the result.
//
//	ocelotl -trace run.bin.gz -p 0.35 -format svg -out view.svg
//	ocelotl -case A -p 0.2 -format report
//	ocelotl -trace run.csv -list-p
//	ocelotl -case C -mode product -format report
//	ocelotl -case A -zoom 5:14 -pan 1,1,-3 -format report
//
// Modes select the algorithm: "st" (the paper's spatiotemporal algorithm,
// default), "spatial" and "temporal" (the 1-D baselines), "product" (their
// Cartesian combination, Fig. 3.c).
//
// -zoom/-pan replay a navigation sequence through the incremental window
// engine (microscopic.Reslicer + core.Input.Update): each step reports its
// latency and how many slices it reused, and the report/render is produced
// on the final window.
//
// -follow tails a trace that is still being written (for example by
// tracegen -append-every) and re-aggregates a sliding window each poll
// tick through the same incremental engine, printing one summary line per
// tick:
//
//	ocelotl -trace growing.bin -follow -p 0.35 -follow-idle 2s
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ocelotl/internal/analysis"
	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/partition"
	"ocelotl/internal/product"
	"ocelotl/internal/render"
	"ocelotl/internal/spatial"
	"ocelotl/internal/temporal"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file to analyze (csv/bin, optionally .gz)")
		caseName  = flag.String("case", "", "generate a Table II case instead of reading a trace (A, B, C, D)")
		scale     = flag.Float64("scale", 0.02, "event-count scale when generating a case")
		seed      = flag.Int64("seed", 42, "simulation seed when generating a case")
		slices    = flag.Int("slices", microscopic.DefaultSlices, "microscopic time slices |T|")
		p         = flag.Float64("p", 0.35, "gain/loss trade-off ratio ∈ [0,1]")
		mode      = flag.String("mode", "st", "aggregation mode: st, spatial, temporal, product")
		format    = flag.String("format", "report", "output: report, svg, png, ascii")
		out       = flag.String("out", "", "output file (default stdout)")
		width     = flag.Int("width", 1000, "view width in pixels")
		height    = flag.Int("height", 600, "view height in pixels")
		minH      = flag.Float64("minheight", 2, "visual-aggregation threshold in pixels (0 disables)")
		normalize = flag.Bool("normalize", false, "normalize gain/loss by their full-aggregation values")
		paletteN  = flag.String("palette", "default", "state colors: default, or ycbcr (equal-luma, §VI)")
		tooltips  = flag.Bool("tooltips", false, "embed per-state proportions as SVG tooltips")
		listP     = flag.Bool("list-p", false, "list the significant p values and exit")
		from      = flag.Float64("from", 0, "zoom: window start as a fraction of the trace [0,1)")
		to        = flag.Float64("to", 1, "zoom: window end as a fraction of the trace (0,1]")
		panSeq    = flag.String("pan", "", "replay comma-separated slice shifts incrementally after -zoom steps (e.g. 1,1,-3)")
		zoomSeq   = flag.String("zoom", "", "replay comma-separated lo:hi slice-range zooms incrementally (e.g. 10:20,2:7)")
		indexName = flag.String("index", "auto", "event index backend: auto (RAM below threshold, disk above), ram, disk")

		follow     = flag.Bool("follow", false, "live mode: tail -trace while it is being written, re-aggregating a sliding window each poll tick (stop with Ctrl-C or -follow-idle)")
		followPoll = flag.Duration("follow-poll", 200*time.Millisecond, "follow mode: tail poll interval")
		followIdle = flag.Duration("follow-idle", 0, "follow mode: exit once no new events arrive for this long (0 = run until interrupted)")
	)
	flag.Parse()

	indexMode, err := microscopic.ParseIndexMode(*indexName)
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancel the pipeline's context; the engine's ctx-aware
	// entry points abandon the solve / significant-p dichotomy at their
	// next node-level check instead of running the analysis to completion.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *follow {
		if *tracePath == "" {
			fatal(fmt.Errorf("-follow needs -trace FILE"))
		}
		if err := runFollow(ctx, os.Stdout, *tracePath, *slices, *p, *mode, *normalize, indexMode, *followPoll, *followIdle); err != nil {
			fatal(err)
		}
		return
	}

	replaying := *panSeq != "" || *zoomSeq != ""
	m, cleanup, err := loadModel(*tracePath, *caseName, *scale, *seed, *slices, *from, *to, replaying, indexMode)
	if err != nil {
		fatal(err)
	}
	onFatal = cleanup
	defer cleanup()
	in, err := core.NewInputContext(ctx, m, core.Options{Normalize: *normalize})
	if err != nil {
		fatal(err)
	}
	if replaying {
		if in, err = replayWindow(ctx, os.Stderr, in, *zoomSeq, *panSeq); err != nil {
			fatal(err)
		}
		m = in.Model // the report/render and baseline modes use the final window
	}

	if *listP {
		points, err := in.SignificantPsContext(ctx, 1e-3)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%10s %8s %12s %12s\n", "p", "areas", "gain", "loss")
		for _, q := range points {
			fmt.Printf("%10.4f %8d %12.2f %12.2f\n", q.P, q.Areas, q.Gain, q.Loss)
		}
		return
	}

	pt, err := runMode(ctx, m, in, *mode, *p)
	if err != nil {
		fatal(err)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	opt := render.Options{Width: *width, Height: *height, MinHeight: *minH, Tooltips: *tooltips}
	switch *paletteN {
	case "default":
	case "ycbcr":
		opt.Palette = render.YCbCrPalette(m.NumStates(), 170)
	default:
		fatal(fmt.Errorf("unknown palette %q (want default or ycbcr)", *paletteN))
	}
	switch *format {
	case "report":
		rep := analysis.Describe(in, pt, 2)
		fmt.Fprint(w, rep.Format(m.States))
	case "svg":
		err = render.BuildScene(in, pt, opt).SVG(w)
	case "png":
		err = render.BuildScene(in, pt, opt).PNG(w)
	case "ascii":
		fmt.Fprint(w, render.BuildScene(in, pt, opt).ASCII(0, 0))
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
}

// loadModel builds the microscopic model; with indexed set (or an
// explicit -index choice) it goes through a microscopic.Reslicer so the
// model supports incremental -pan/-zoom replay. The returned cleanup
// releases the event index — a disk-backed one holds an open temporary
// store file until then.
func loadModel(tracePath, caseName string, scale float64, seed int64, slices int, from, to float64, indexed bool, mode microscopic.IndexMode) (*microscopic.Model, func(), error) {
	noop := func() {}
	if from < 0 || to > 1 || from >= to {
		return nil, noop, fmt.Errorf("bad zoom window [%g,%g): need 0 ≤ from < to ≤ 1", from, to)
	}
	// An explicit -index choice routes through the Reslicer even without
	// replay, so the backend can be exercised (and disk forced) on a
	// plain one-shot run.
	useIndex := indexed || mode != microscopic.IndexAuto
	build := func(src microscopic.EventSource, opt microscopic.Options) (*microscopic.Model, func(), error) {
		rs, err := microscopic.NewReslicerIndexed(src, microscopic.IndexOptions{Mode: mode})
		if err != nil {
			return nil, noop, err
		}
		m, err := rs.Build(opt)
		if err != nil {
			rs.Close()
			return nil, noop, err
		}
		return m, func() { rs.Close() }, nil
	}
	switch {
	case tracePath != "" && caseName != "":
		return nil, noop, fmt.Errorf("use either -trace or -case, not both")
	case tracePath != "":
		r, err := traceio.OpenFile(tracePath)
		if err != nil {
			return nil, noop, err
		}
		defer r.Close()
		opt := microscopic.Options{Slices: slices}
		if from != 0 || to != 1 {
			ws, we := r.Window()
			opt.Start, opt.End = ws+from*(we-ws), ws+to*(we-ws)
		}
		if useIndex {
			return build(r, opt)
		}
		m, err := microscopic.BuildStream(r, opt)
		return m, noop, err
	case caseName != "":
		res, err := mpisim.GenerateCase(grid5000.Case(caseName), mpisim.Config{Seed: seed, Scale: scale})
		if err != nil {
			return nil, noop, err
		}
		opt := microscopic.Options{Slices: slices}
		if from != 0 || to != 1 {
			ws, we := res.Trace.Window()
			opt.Start, opt.End = ws+from*(we-ws), ws+to*(we-ws)
		}
		if useIndex {
			return build(microscopic.TraceSource(res.Trace), opt)
		}
		m, err := microscopic.Build(res.Trace, opt)
		return m, noop, err
	default:
		return nil, noop, fmt.Errorf("need -trace FILE or -case A|B|C|D (see -help)")
	}
}

// replayWindow applies the -zoom steps then the -pan steps through the
// incremental engine path, reporting each step's window, slice reuse and
// latency. The partition/rendering then runs on the final window's input.
func replayWindow(ctx context.Context, log io.Writer, in *core.Input, zoomSpec, panSpec string) (*core.Input, error) {
	step := func(label string, fn func() (*core.Input, error)) error {
		prev := in.Model.Slicer
		t0 := time.Now()
		next, err := fn()
		if err != nil {
			return fmt.Errorf("replay %s: %w", label, err)
		}
		elapsed := time.Since(t0)
		reused := microscopic.GridOverlap(prev, next.Model.Slicer).W
		in = next
		fmt.Fprintf(log, "replay %-12s window=[%.6g,%.6g) reused %d/%d slices in %v\n",
			label, in.Model.Slicer.Start, in.Model.Slicer.End, reused, in.T, elapsed)
		return nil
	}
	if zoomSpec != "" {
		for _, part := range strings.Split(zoomSpec, ",") {
			lohi := strings.SplitN(part, ":", 2)
			if len(lohi) != 2 {
				return nil, fmt.Errorf("bad -zoom step %q (want lo:hi)", part)
			}
			lo, err1 := strconv.Atoi(strings.TrimSpace(lohi[0]))
			hi, err2 := strconv.Atoi(strings.TrimSpace(lohi[1]))
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad -zoom step %q (want lo:hi)", part)
			}
			if err := step(fmt.Sprintf("zoom %d:%d", lo, hi), func() (*core.Input, error) { return in.Zoom(ctx, lo, hi) }); err != nil {
				return nil, err
			}
		}
	}
	if panSpec != "" {
		for _, part := range strings.Split(panSpec, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad -pan step %q (want an integer slice shift)", part)
			}
			if err := step(fmt.Sprintf("pan %+d", k), func() (*core.Input, error) { return in.Pan(ctx, k) }); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

// runFollow is the CLI face of live ingestion: tail the trace file while
// a writer appends to it, extend the event index copy-on-write each poll
// tick (traceio.TailReader → microscopic.Reslicer.Extend), slide a
// slices-wide window to the ingestion horizon, and re-aggregate it
// incrementally (core.Input.AdvanceContext — O(Δ slices) per tick). One
// summary line per tick that carried events.
func runFollow(ctx context.Context, w io.Writer, path string, slices int, p float64, mode string, normalize bool, indexMode microscopic.IndexMode, poll, idle time.Duration) error {
	var tail *traceio.TailReader
	for {
		var err error
		tail, err = traceio.OpenTail(path)
		if err == nil {
			break
		}
		if !os.IsNotExist(err) && !traceio.IsIncomplete(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(poll):
		}
	}
	defer tail.Close()

	hdrStart, hdrEnd := tail.Window()
	horizon := hdrStart
	var events []trace.Event
	readBatch := func() (int, error) {
		n := 0
		var ev trace.Event
		for n < 1<<18 {
			if err := tail.Next(&ev); err != nil {
				if traceio.IsIncomplete(err) {
					return n, nil
				}
				return n, err
			}
			if ev.Start > horizon {
				horizon = ev.Start
			}
			events = append(events, ev)
			n++
		}
		return n, nil
	}
	if _, err := readBatch(); err != nil {
		return err
	}

	width := 1.0
	if hdrEnd > hdrStart {
		width = (hdrEnd - hdrStart) / float64(slices)
	}
	anchor, err := timeslice.New(hdrStart, hdrStart+float64(slices)*width, slices)
	if err != nil {
		return err
	}
	// livePan positions the window so its end is the last slice boundary
	// at or below the horizon — every slice shown is fully ingested.
	livePan := func(h float64) int {
		pan := int((h-anchor.Start)/anchor.Width()) - anchor.N
		if pan < -anchor.N {
			pan = -anchor.N
		}
		for pan > -anchor.N && anchor.Shift(pan).End > h {
			pan--
		}
		for anchor.Shift(pan+1).End <= h {
			pan++
		}
		return pan
	}

	resl, err := microscopic.NewReslicerIndexed(
		microscopic.TraceSource(&trace.Trace{Resources: tail.Resources(), States: tail.States(), Events: events, Start: hdrStart, End: horizon}),
		microscopic.IndexOptions{Mode: indexMode})
	if err != nil {
		return err
	}
	defer func() { resl.Close() }()
	events = nil

	pan := livePan(horizon)
	m, err := resl.BuildAt(anchor.Shift(pan))
	if err != nil {
		return err
	}
	in, err := core.NewInputContext(ctx, m, core.Options{Normalize: normalize})
	if err != nil {
		return err
	}

	tick := 0
	total := resl.NumEvents()
	report := func() error {
		pt, err := runMode(ctx, in.Model, in, mode, p)
		if err != nil {
			return err
		}
		sl := in.Model.Slicer
		_, err = fmt.Fprintf(w, "tick %4d  events %9d  horizon %12.6g  window [%.6g,%.6g)  areas %4d  gain %12.4f  loss %12.4f\n",
			tick, total, horizon, sl.Start, sl.End, len(pt.Areas), pt.Gain, pt.Loss)
		return err
	}
	if err := report(); err != nil {
		return err
	}

	lastData := time.Now()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		prevHorizon := horizon
		n, err := readBatch()
		if err != nil {
			return err
		}
		if n == 0 {
			if idle > 0 && time.Since(lastData) > idle {
				return nil
			}
			continue
		}
		lastData = time.Now()
		reorder := false
		for _, ev := range events {
			if ev.Start < prevHorizon {
				reorder = true
				break
			}
		}
		next, err := resl.Extend(events, horizon)
		if err != nil {
			return err
		}
		resl = next // old snapshots stay readable; the deferred Close releases the newest (shared) index once
		total = resl.NumEvents()
		events = events[:0]
		npan := livePan(horizon)
		switch {
		case reorder:
			if m, err = resl.BuildAt(anchor.Shift(npan)); err != nil {
				return err
			}
			if in, err = core.NewInputContext(ctx, m, core.Options{Normalize: normalize}); err != nil {
				return err
			}
		case npan > pan:
			if in, err = in.AdvanceContext(ctx, resl, npan-pan); err != nil {
				return err
			}
		}
		pan = npan
		tick++
		if err := report(); err != nil {
			return err
		}
	}
}

func runMode(ctx context.Context, m *microscopic.Model, in *core.Input, mode string, p float64) (*partition.Partition, error) {
	switch mode {
	case "st":
		return in.NewSolver().RunContext(ctx, p)
	case "spatial":
		return spatial.New(m).Run(p)
	case "temporal":
		return temporal.New(m).Run(p)
	case "product":
		return product.New(m).Evaluate(in, p)
	default:
		return nil, fmt.Errorf("unknown mode %q (want st, spatial, temporal or product)", mode)
	}
}

// onFatal runs before os.Exit so a disk-backed index's temporary store
// file is removed even on error exits (deferred cleanups don't run past
// os.Exit).
var onFatal = func() {}

func fatal(err error) {
	onFatal()
	fmt.Fprintln(os.Stderr, "ocelotl:", err)
	os.Exit(1)
}
