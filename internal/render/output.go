package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"strings"
)

// SVG serializes the scene as a standalone SVG document: one <rect> per
// aggregate (fill = mode color, fill-opacity = α), diagonal/cross mark
// lines for visual aggregates, a bottom time axis and a state legend.
func (sc *Scene) SVG(w io.Writer) error {
	const legendH = 28
	const axisH = 22
	total := sc.H + axisH + legendH
	if _, err := fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		sc.W, total, sc.W, total); err != nil {
		return err
	}
	fmt.Fprintf(w, `<rect x="0" y="0" width="%d" height="%d" fill="white"/>`+"\n", sc.W, total)
	for _, r := range sc.Rects {
		if r.Mode < 0 {
			fmt.Fprintf(w, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="none" stroke="#888" stroke-width="0.5"/>`+"\n",
				r.X, r.Y, r.W, r.H)
			continue
		}
		if sc.Tooltips && len(r.Rho) > 0 {
			fmt.Fprintf(w, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="%.3f" stroke="#333" stroke-width="0.5">`,
				r.X, r.Y, r.W, r.H, hexColor(r.Color), r.Alpha)
			fmt.Fprintf(w, "<title>%s</title></rect>\n", xmlEscape(tooltipText(sc, r)))
		} else {
			fmt.Fprintf(w, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="%.3f" stroke="#333" stroke-width="0.5"/>`+"\n",
				r.X, r.Y, r.W, r.H, hexColor(r.Color), r.Alpha)
		}
		switch r.Mark {
		case MarkDiagonal:
			fmt.Fprintf(w, `<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1"/>`+"\n",
				r.X, r.Y+r.H, r.X+r.W, r.Y)
		case MarkCross:
			fmt.Fprintf(w, `<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1"/>`+"\n",
				r.X, r.Y+r.H, r.X+r.W, r.Y)
			fmt.Fprintf(w, `<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1"/>`+"\n",
				r.X, r.Y, r.X+r.W, r.Y+r.H)
		}
	}
	// Time axis: five labels.
	for i := 0; i <= 4; i++ {
		frac := float64(i) / 4
		x := frac * float64(sc.W)
		tv := sc.TimeStart + frac*(sc.TimeEnd-sc.TimeStart)
		anchor := "middle"
		if i == 0 {
			anchor = "start"
		} else if i == 4 {
			anchor = "end"
		}
		fmt.Fprintf(w, `<text x="%.1f" y="%d" font-size="11" font-family="sans-serif" text-anchor="%s">%.3gs</text>`+"\n",
			x, sc.H+15, anchor, tv)
	}
	// Legend.
	x := 4.0
	y := sc.H + axisH + 18
	for _, le := range sc.Legend {
		fmt.Fprintf(w, `<rect x="%.1f" y="%d" width="12" height="12" fill="%s"/>`+"\n", x, y-11, hexColor(le.Color))
		fmt.Fprintf(w, `<text x="%.1f" y="%d" font-size="11" font-family="sans-serif">%s</text>`+"\n", x+16, y, xmlEscape(le.State))
		x += 16 + 7.5*float64(len(le.State)) + 14
	}
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}

func hexColor(c color.RGBA) string { return fmt.Sprintf("#%02x%02x%02x", c.R, c.G, c.B) }

// tooltipText lists the area and every state's aggregated proportion —
// the §VI "retrieve the proportion of all the active states" interaction.
func tooltipText(sc *Scene, r Rect) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", r.Area.String())
	if r.Visual {
		b.WriteString(" (visual aggregate)")
	}
	for i, rho := range r.Rho {
		name := fmt.Sprintf("state %d", i)
		if i < len(sc.Legend) {
			name = sc.Legend[i].State
		}
		fmt.Fprintf(&b, "\n%s: %.1f%%", name, 100*rho)
	}
	return b.String()
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// PNG rasterizes the scene (white background, alpha-blended fills, 1-px
// borders, mark lines) and writes it as a PNG image.
func (sc *Scene) PNG(w io.Writer) error {
	img := image.NewRGBA(image.Rect(0, 0, sc.W, sc.H))
	fill(img, 0, 0, sc.W, sc.H, color.RGBA{255, 255, 255, 255})
	for _, r := range sc.Rects {
		x0, y0 := int(math.Round(r.X)), int(math.Round(r.Y))
		x1, y1 := int(math.Round(r.X+r.W)), int(math.Round(r.Y+r.H))
		if x1 <= x0 {
			x1 = x0 + 1
		}
		if y1 <= y0 {
			y1 = y0 + 1
		}
		if r.Mode >= 0 {
			fill(img, x0, y0, x1-x0, y1-y0, blend(r.Color, r.Alpha))
		}
		border(img, x0, y0, x1-x0, y1-y0, color.RGBA{51, 51, 51, 255})
		switch r.Mark {
		case MarkDiagonal:
			line(img, x0, y1-1, x1-1, y0, color.RGBA{0, 0, 0, 255})
		case MarkCross:
			line(img, x0, y1-1, x1-1, y0, color.RGBA{0, 0, 0, 255})
			line(img, x0, y0, x1-1, y1-1, color.RGBA{0, 0, 0, 255})
		}
	}
	return png.Encode(w, img)
}

// blend premultiplies the color against white by alpha (the SVG
// fill-opacity equivalent for an opaque canvas).
func blend(c color.RGBA, alpha float64) color.RGBA {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	mix := func(v uint8) uint8 {
		return uint8(math.Round(alpha*float64(v) + (1-alpha)*255))
	}
	return color.RGBA{mix(c.R), mix(c.G), mix(c.B), 255}
}

func fill(img *image.RGBA, x, y, w, h int, c color.RGBA) {
	b := img.Bounds()
	for yy := max(y, b.Min.Y); yy < min(y+h, b.Max.Y); yy++ {
		for xx := max(x, b.Min.X); xx < min(x+w, b.Max.X); xx++ {
			img.SetRGBA(xx, yy, c)
		}
	}
}

func border(img *image.RGBA, x, y, w, h int, c color.RGBA) {
	for xx := x; xx < x+w; xx++ {
		set(img, xx, y, c)
		set(img, xx, y+h-1, c)
	}
	for yy := y; yy < y+h; yy++ {
		set(img, x, yy, c)
		set(img, x+w-1, yy, c)
	}
}

func set(img *image.RGBA, x, y int, c color.RGBA) {
	if image.Pt(x, y).In(img.Bounds()) {
		img.SetRGBA(x, y, c)
	}
}

// line draws with the integer Bresenham algorithm.
func line(img *image.RGBA, x0, y0, x1, y1 int, c color.RGBA) {
	dx, dy := abs(x1-x0), -abs(y1-y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		set(img, x0, y0, c)
		if x0 == x1 && y0 == y1 {
			return
		}
		if e2 := 2 * err; e2 >= dy {
			err += dy
			x0 += sx
		} else {
			err += dx
			y0 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ASCII renders a compact terminal view: one character cell per
// (resource-band, slice), showing the mode state's letter; uppercase for a
// dominant mode (α ≥ 0.66), lowercase otherwise, '.' for idle, '▒'-style
// '#' marks for visual aggregates. maxRows caps the number of resource
// bands (resources are binned when |S| exceeds it).
func (sc *Scene) ASCII(maxRows, cols int) string {
	if maxRows <= 0 {
		maxRows = 24
	}
	if cols <= 0 {
		cols = 60
	}
	grid := make([][]byte, maxRows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", cols))
	}
	// Scene pixel space → character space.
	for _, r := range sc.Rects {
		c0 := int(r.X / float64(sc.W) * float64(cols))
		c1 := int(math.Ceil((r.X + r.W) / float64(sc.W) * float64(cols)))
		r0 := int(r.Y / float64(sc.H) * float64(maxRows))
		r1 := int(math.Ceil((r.Y + r.H) / float64(sc.H) * float64(maxRows)))
		ch := byte('.')
		if r.Mode >= 0 && r.Mode < len(sc.Legend) {
			name := sc.Legend[r.Mode].State
			letter := stateLetter(name)
			if r.Alpha >= 0.66 {
				ch = upper(letter)
			} else {
				ch = lower(letter)
			}
		}
		if r.Mark == MarkCross {
			ch = '#'
		}
		for rr := max(r0, 0); rr < min(r1, maxRows); rr++ {
			for cc := max(c0, 0); cc < min(c1, cols); cc++ {
				grid[rr][cc] = ch
			}
		}
	}
	var b strings.Builder
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	// Legend line.
	for _, le := range sc.Legend {
		fmt.Fprintf(&b, "%c=%s ", upper(stateLetter(le.State)), le.State)
	}
	b.WriteByte('\n')
	return b.String()
}

// stateLetter picks a distinguishing letter for a state name: the first
// letter after a known prefix ("MPI_Wait" → 'w') or the first letter.
func stateLetter(name string) byte {
	if s, ok := strings.CutPrefix(name, "MPI_"); ok && len(s) > 0 {
		return s[0]
	}
	if len(name) > 0 {
		return name[0]
	}
	return '?'
}

func upper(b byte) byte {
	if b >= 'a' && b <= 'z' {
		return b - 32
	}
	return b
}

func lower(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + 32
	}
	return b
}
