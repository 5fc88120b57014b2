// naslu reproduces the paper's §V.B case study: NAS-LU class C on 700
// cores spread over three heterogeneous Nancy clusters. The aggregation
// must separate the clusters by behaviour — Graphene homogeneous,
// Graphite (10G Ethernet) spatially fragmented, Griffon regular except a
// rupture at 34.5 s caused by switches shared with hidden machines.
//
//	go run ./examples/naslu [-scale 0.01]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ocelotl/internal/analysis"
	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/render"
)

func main() {
	scale := flag.Float64("scale", 0.005, "fraction of the paper's 218M events")
	seed := flag.Int64("seed", 42, "simulation seed")
	out := flag.String("out", "", "optional SVG output for the overview")
	flag.Parse()

	res, err := mpisim.GenerateCase(grid5000.CaseC, mpisim.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated NAS-LU class C, 700 processes on Nancy: %d events\n", res.Trace.NumEvents())

	model, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	in, err := core.NewInputContext(ctx, model, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	pt, err := in.NewSolver().RunContext(ctx, 0.35)
	if err != nil {
		log.Fatal(err)
	}

	// Per-cluster reading (the Fig. 4 narrative).
	fmt.Printf("\npartition: %d areas\n", pt.NumAreas())
	for _, cs := range analysis.SummarizeClusters(in, pt, 2) {
		name := strings.TrimPrefix(cs.Path, "nancy/")
		shape := "spatially merged"
		if !cs.SpatiallyMerged {
			shape = "spatially separated"
		}
		fmt.Printf("  %-10s %4d areas, %2d temporal cuts, %s (mode %s)\n",
			name, cs.Areas, cs.TemporalCuts, shape, model.States[cs.Mode])
	}

	// The Griffon rupture: find the temporal boundary nearest 34.5 s
	// among griffon-only areas.
	var rupture mpisim.Perturbation
	for _, p := range res.Perturbations {
		if p.Kind == "switch-sharing" {
			rupture = p
		}
	}
	griffon := model.H.ByPath["nancy/griffon"]
	bestGap := 1e18
	bestT := -1.0
	for _, a := range pt.Areas {
		if !griffon.Contains(a.Node) || a.J >= model.NumSlices()-1 {
			continue
		}
		_, cutTime := model.Slicer.Bounds(a.J)
		if gap := abs(cutTime - rupture.Start); gap < bestGap {
			bestGap, bestT = gap, cutTime
		}
	}
	fmt.Printf("\ninjected rupture at %.1f s (paper: 34.5 s); nearest griffon cut at %.1f s\n", rupture.Start, bestT)
	if bestGap <= 2*model.Slicer.Width() {
		fmt.Println("→ rupture isolated by the aggregation")
	} else {
		fmt.Println("→ rupture NOT isolated (try a lower p)")
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := render.BuildScene(in, pt, render.Options{Width: 1000, Height: 700, MinHeight: 2}).SVG(f); err != nil {
			log.Fatal(err)
		}
		fmt.Println("overview written to", *out)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
