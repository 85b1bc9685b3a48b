// Package bench regenerates every figure of the paper's evaluation
// (Section 7) plus the ablations DESIGN.md calls out. Each experiment
// builds fresh deterministic clusters per data point, so results are
// identical across runs; absolute values are calibrated to the paper's
// testbed (see EXPERIMENTS.md for paper-vs-measured).
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Point is one (x, y) measurement.
type Point struct {
	X, Y float64
}

// Series is one labeled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproduced table/figure.
type Figure struct {
	ID        string // e.g. "fig11"
	Title     string
	XLabel    string
	YLabel    string
	PaperNote string // what the paper reports, for side-by-side reading
	Series    []Series
}

// Fprint renders the figure as an aligned table, one row per x value,
// one column per series — the same rows/series the paper plots.
func (f Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s ===\n", f.ID, f.Title)
	if f.PaperNote != "" {
		fmt.Fprintf(w, "paper: %s\n", f.PaperNote)
	}
	if len(f.Series) == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	// Collect the union of x values in first-series order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	header := fmt.Sprintf("%14s", f.XLabel)
	for _, s := range f.Series {
		header += fmt.Sprintf("  %14s", s.Name)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, x := range xs {
		row := fmt.Sprintf("%14s", formatX(x))
		for _, s := range f.Series {
			y, ok := lookup(s, x)
			if !ok {
				row += fmt.Sprintf("  %14s", "-")
			} else {
				row += fmt.Sprintf("  %14.2f", y)
			}
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintf(w, "units: x=%s, y=%s\n\n", f.XLabel, f.YLabel)
}

func formatX(x float64) string {
	if x == float64(int64(x)) {
		v := int64(x)
		switch {
		case v >= 1<<20 && v%(1<<20) == 0:
			return fmt.Sprintf("%dM", v>>20)
		case v >= 1<<10 && v%(1<<10) == 0:
			return fmt.Sprintf("%dK", v>>10)
		default:
			return fmt.Sprintf("%d", v)
		}
	}
	return fmt.Sprintf("%.2f", x)
}

func lookup(s Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// CSV renders the figure as comma-separated rows (one per x value, one
// column per series), for external plotting tools.
func (f Figure) CSV(w io.Writer) {
	header := f.XLabel
	for _, s := range f.Series {
		header += "," + s.Name
	}
	fmt.Fprintln(w, header)
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for _, x := range xs {
		row := fmt.Sprintf("%g", x)
		for _, s := range f.Series {
			if y, ok := lookup(s, x); ok {
				row += fmt.Sprintf(",%g", y)
			} else {
				row += ","
			}
		}
		fmt.Fprintln(w, row)
	}
}

// Value returns the y value of the series' point at x, or 0.
func (f Figure) Value(series string, x float64) float64 {
	for _, s := range f.Series {
		if s.Name == series {
			y, _ := lookup(s, x)
			return y
		}
	}
	return 0
}

// Ablations runs the design-choice studies DESIGN.md section 5 lists.
func Ablations() []Figure {
	return []Figure{
		AblationCommThread(),
		AblationRendezvous(),
		AblationPiggyback(),
		AblationTCPBuffers(),
		AblationCreditVsConnSetup(),
		AblationJumboFrames(),
		ExtDataCenter(),
		ExtUDPComparison(),
		ExtConnectionTime(),
	}
}

// Default sweep parameters (the paper's ranges).
func DefaultLatencySizes() []int   { return []int{4, 16, 64, 256, 1024, 4096} }
func DefaultCredits() []int        { return []int{1, 2, 4, 8, 16, 32} }
func DefaultBandwidthSizes() []int { return []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10} }
func DefaultFileSizes() []int      { return []int{1 << 20, 4 << 20, 16 << 20, 64 << 20} }
func DefaultResponseSizes() []int  { return []int{4, 256, 1024, 4096, 8192} }
func DefaultMatrixSizes() []int    { return []int{64, 128, 256, 384} }
