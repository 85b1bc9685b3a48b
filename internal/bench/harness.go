// Package bench regenerates every figure of the paper's evaluation
// (Section 7) plus the ablations DESIGN.md calls out. Each experiment
// builds fresh deterministic clusters per data point, so results are
// identical across runs; absolute values are calibrated to the paper's
// testbed (see EXPERIMENTS.md for paper-vs-measured).
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
)

// RecordJSON renders a BENCH_*.json record: two-space indented and
// newline-terminated, the bytes cmd/reproduce writes and the committed
// files hold.
func RecordJSON(v any) ([]byte, error) {
	blob, err := json.MarshalIndent(v, "", "  ")
	return append(blob, '\n'), err
}

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
	header := fmt.Sprintf("%14s", f.XLabel)
	for _, s := range f.Series {
		header += fmt.Sprintf("  %14s", s.Name)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, x := range f.xs() {
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

// xs returns the union of the series' x values, in first-seen order.
func (f Figure) xs() []float64 {
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
	return xs
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
	for _, x := range f.xs() {
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

// A curve is one series of a figure. y measures the point at x on a
// fresh cluster of its own, and reports false when the run failed, which
// leaves the point out.
type curve struct {
	name string
	y    func(x int) (float64, bool)
}

// sweep measures every curve at every x, curve by curve and x by x, and
// returns fig with one series per curve. Each point is its own seeded
// cluster, so the order the points run in moves no value.
func sweep(fig Figure, xs []int, curves ...curve) Figure {
	for _, c := range curves {
		s := Series{Name: c.name}
		for _, x := range xs {
			if y, ok := c.y(x); ok {
				s.Points = append(s.Points, Point{X: float64(x), Y: y})
			}
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// on is the curve whose point x is measure run on a fresh cluster from
// build.
func on(name string, build func() *cluster.Cluster, measure func(c *cluster.Cluster, x int) (float64, bool)) curve {
	return curve{name, func(x int) (float64, bool) { return measure(build(), x) }}
}

// substrate and tcp build a fresh cluster of the given size per point.
func substrate(nodes int, opts *core.Options) func() *cluster.Cluster {
	return func() *cluster.Cluster { return cluster.NewSubstrate(nodes, opts) }
}

func tcp(nodes int) func() *cluster.Cluster {
	return func() *cluster.Cluster { return cluster.NewTCP(nodes) }
}

// latency measures the mean one-way latency in us of n-byte messages.
func latency(c *cluster.Cluster, n int) (float64, bool) {
	return sockPingPong(c, n, latencyIters).Micros(), true
}

// ftp measures the bandwidth in Mbps of one size-byte file transfer.
func ftp(c *cluster.Cluster, size int) (float64, bool) {
	res := apps.RunFTP(c, size)
	return res.Mbps(), res.Err == nil
}

// web measures the average response time in us for size-byte
// responses, reqsPerConn requests per connection.
func web(reqsPerConn int) func(c *cluster.Cluster, size int) (float64, bool) {
	return func(c *cluster.Cluster, size int) (float64, bool) {
		res := apps.RunWeb(c, apps.DefaultWebConfig(size, reqsPerConn))
		return res.AvgResponse.Micros(), res.Err == nil
	}
}

// matmul measures the wall time in ms of an n x n multiplication.
func matmul(c *cluster.Cluster, n int) (float64, bool) {
	res := apps.RunMatmul(c, n)
	return res.Elapsed.Seconds() * 1e3, res.Err == nil
}

// kv measures the average key-value operation latency in us for
// size-byte values.
func kv(c *cluster.Cluster, size int) (float64, bool) {
	res := apps.RunKVStore(c, apps.DefaultKVConfig(size))
	return res.AvgLatency.Micros(), res.Err == nil
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
