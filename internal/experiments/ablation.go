package experiments

import (
	"context"
	"fmt"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/product"
	"ocelotl/internal/temporal"
)

// runAblation backs the paper's §III complexity claims and the §III.D
// baseline comparison with measurements:
//
//  1. aggregation time scales ~cubically in |T| at fixed |S| and
//     ~linearly in |S| at fixed |T| (Algorithm 1 is O(|S|·|T|³));
//  2. the spatiotemporal optimum dominates the Cartesian-product baseline
//     at every p, strictly where cross patterns exist;
//  3. the significant-p ladder gives the analyst a small set of slider
//     stops;
//  4. the fused lane-blocked p-sweep answers a 16-p quality curve well
//     under the cost of 16 single-p runs, bit-identically.
func RunAblation(cfg Config) error {
	cfg.println("1. scaling in |T| at |S|=48 (expect ~8× time per 2× slices at large |T|):")
	cfg.printf("%8s %12s %12s %14s\n", "|T|", "input", "run", "cells")
	for _, T := range []int{16, 32, 64, 128} {
		input, run, cells, err := measureScaling(cfg.context(), 48, T)
		if err != nil {
			return err
		}
		cfg.printf("%8d %12v %12v %14d\n", T, input.Round(time.Microsecond), run.Round(time.Microsecond), cells)
	}
	cfg.println("\n2. scaling in |S| at |T|=32 (expect ~2× time per 2× resources):")
	cfg.printf("%8s %12s %12s %14s\n", "|S|", "input", "run", "cells")
	for _, S := range []int{24, 48, 96, 192, 384} {
		input, run, cells, err := measureScaling(cfg.context(), S, 32)
		if err != nil {
			return err
		}
		cfg.printf("%8d %12v %12v %14d\n", S, input.Round(time.Microsecond), run.Round(time.Microsecond), cells)
	}

	cfg.println("\n3. spatiotemporal optimum vs Cartesian-product baseline (artificial trace):")
	m, err := microscopic.Build(mpisim.Artificial(), microscopic.Options{Slices: 20})
	if err != nil {
		return err
	}
	in, err := core.NewInputContext(cfg.context(), m, core.Options{})
	if err != nil {
		return err
	}
	pa := product.New(m)
	cfg.printf("%6s %14s %14s %10s\n", "p", "core pIC", "product pIC", "areas")
	// The spatiotemporal curve is sampled concurrently (one solver per p
	// against the shared input); reporting stays in p order.
	ps := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	corePts, err := in.SweepRunContext(cfg.context(), ps)
	if err != nil {
		return err
	}
	for i, p := range ps {
		corePt := corePts[i]
		prodPt, err := pa.Evaluate(in, p)
		if err != nil {
			return err
		}
		marker := ""
		if corePt.PIC > prodPt.PIC+1e-9 {
			marker = "  (core strictly better)"
		}
		cfg.printf("%6.2f %14.3f %14.3f %6d/%-4d%s\n", p, corePt.PIC, prodPt.PIC, corePt.NumAreas(), prodPt.NumAreas(), marker)
	}

	cfg.println("\n4. temporal-only baseline cost on the same model (O(|T|²) DP):")
	ta := temporal.New(m)
	start := time.Now()
	tp, err := ta.Run(0.5)
	if err != nil {
		return err
	}
	cfg.printf("   %d intervals in %v\n", tp.NumAreas(), time.Since(start).Round(time.Microsecond))

	cfg.println("\n5. significant-p ladder (slider stops):")
	points, err := in.SignificantPsContext(cfg.context(), 1e-3)
	if err != nil {
		return err
	}
	for _, q := range points {
		cfg.printf("   p=%6.4f  %4d areas  gain %8.2f  loss %8.2f\n", q.P, q.Areas, q.Gain, q.Loss)
	}

	cfg.println("\n6. fused p-sweep vs single-p runs (16 ps on a larger model):")
	mw, err := microscopic.Build(mpisim.ArtificialSized(96, 40), microscopic.Options{Slices: 40})
	if err != nil {
		return err
	}
	inw, err := core.NewInputContext(cfg.context(), mw, core.Options{})
	if err != nil {
		return err
	}
	sweepPs := make([]float64, 16)
	for i := range sweepPs {
		sweepPs[i] = float64(i+1) / float64(len(sweepPs)+1)
	}
	var single []core.QualityPoint
	singleDur, err := timed(func() error {
		s, err := inw.AcquireSolverContext(cfg.context())
		if err != nil {
			return err
		}
		defer inw.ReleaseSolver(s)
		for _, p := range sweepPs {
			q, err := s.QualityContext(cfg.context(), p)
			if err != nil {
				return err
			}
			single = append(single, q)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var fused []core.QualityPoint
	fusedDur, err := timed(func() error {
		var err error
		fused, err = inw.SweepQualityContext(cfg.context(), sweepPs)
		return err
	})
	if err != nil {
		return err
	}
	for i := range fused {
		if fused[i] != single[i] {
			return fmt.Errorf("fused sweep diverged from single-p runs at p=%v", sweepPs[i])
		}
	}
	cfg.printf("   16 single-p runs: %10v   fused sweep: %10v   (%.1fx, bit-identical)\n",
		singleDur.Round(time.Microsecond), fusedDur.Round(time.Microsecond),
		float64(singleDur)/float64(fusedDur))
	return nil
}

// measureScaling builds a synthetic model of the given dimensions and
// times the two phases of the algorithm separately.
func measureScaling(ctx context.Context, S, T int) (input, run time.Duration, cells int, err error) {
	tr := mpisim.ArtificialSized(S, T)
	m, err := microscopic.Build(tr, microscopic.Options{Slices: T})
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	in, err := core.NewInputContext(ctx, m, core.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	input = time.Since(start)
	solver := in.NewSolver()
	start = time.Now()
	if _, err := solver.RunContext(ctx, 0.5); err != nil {
		return 0, 0, 0, err
	}
	run = time.Since(start)
	return input, run, in.InputCells(), nil
}
