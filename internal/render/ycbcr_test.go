package render

import (
	"bytes"
	"context"
	"image/color"
	"math"
	"strings"
	"testing"

	"ocelotl/internal/core"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
)

func TestYCbCrPaletteEqualLuma(t *testing.T) {
	for _, n := range []int{2, 3, 6, 10} {
		pal := YCbCrPalette(n, 170)
		if len(pal) != n {
			t.Fatalf("n=%d: got %d colors", n, len(pal))
		}
		base := Luma(pal[0])
		for i, c := range pal {
			// RGB quantization wobbles luma by a few units; the §VI
			// goal is equal *perceived* brightness, so a tight bound.
			if math.Abs(Luma(c)-base) > 6 {
				t.Errorf("n=%d color %d: luma %.1f vs %.1f", n, i, Luma(c), base)
			}
		}
	}
}

func TestYCbCrPaletteDistinct(t *testing.T) {
	pal := YCbCrPalette(6, 170)
	for i := range pal {
		for j := i + 1; j < len(pal); j++ {
			dr := int(pal[i].R) - int(pal[j].R)
			dg := int(pal[i].G) - int(pal[j].G)
			db := int(pal[i].B) - int(pal[j].B)
			if dr*dr+dg*dg+db*db < 900 { // distance ≥ 30
				t.Errorf("colors %d and %d too close: %v vs %v", i, j, pal[i], pal[j])
			}
		}
	}
}

func TestYCbCrPaletteDegenerate(t *testing.T) {
	if YCbCrPalette(0, 170) != nil {
		t.Error("n=0 should yield nil")
	}
	if got := YCbCrPalette(1, 170); len(got) != 1 {
		t.Errorf("n=1 gave %d colors", len(got))
	}
}

func TestLumaWeights(t *testing.T) {
	if got := Luma(color.RGBA{255, 255, 255, 255}); math.Abs(got-255) > 1e-9 {
		t.Errorf("white luma = %g", got)
	}
	if got := Luma(color.RGBA{0, 0, 0, 255}); got != 0 {
		t.Errorf("black luma = %g", got)
	}
	// Green dominates perceived brightness.
	if Luma(color.RGBA{0, 200, 0, 255}) <= Luma(color.RGBA{200, 0, 0, 255}) {
		t.Error("green should be brighter than red at equal channel value")
	}
}

func TestSceneWithYCbCrPalette(t *testing.T) {
	tr := mpisim.Artificial()
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 20})
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInputContext(context.Background(), m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := in.NewSolver().RunContext(context.Background(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	sc := BuildScene(in, pt, Options{Palette: YCbCrPalette(m.NumStates(), 170)})
	for _, r := range sc.Rects {
		if r.Mode >= 0 && r.Color == (color.RGBA{}) {
			t.Fatal("palette not applied")
		}
	}
}

func TestSVGTooltips(t *testing.T) {
	tr := mpisim.Artificial()
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 20})
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInputContext(context.Background(), m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := in.NewSolver().RunContext(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sc := BuildScene(in, pt, Options{Tooltips: true})
	var buf bytes.Buffer
	if err := sc.SVG(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if got := strings.Count(s, "<title>"); got != len(sc.Rects) {
		t.Errorf("SVG has %d tooltips for %d rects", got, len(sc.Rects))
	}
	if !strings.Contains(s, "busy:") || !strings.Contains(s, "idle:") {
		t.Error("tooltips missing state proportions")
	}
	// Off by default.
	plain := BuildScene(in, pt, Options{})
	buf.Reset()
	if err := plain.SVG(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<title>") {
		t.Error("tooltips emitted without the option")
	}
}

func TestTooltipTextContents(t *testing.T) {
	tr := mpisim.Artificial()
	m, _ := microscopic.Build(tr, microscopic.Options{Slices: 20})
	in, err := core.NewInputContext(context.Background(), m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := in.NewSolver().RunContext(context.Background(), 0.5)
	sc := BuildScene(in, pt, Options{Tooltips: true})
	txt := tooltipText(sc, sc.Rects[0])
	if !strings.Contains(txt, sc.Rects[0].Area.String()) {
		t.Errorf("tooltip %q missing area label", txt)
	}
	if !strings.Contains(txt, "%") {
		t.Errorf("tooltip %q missing proportions", txt)
	}
}
