// Package stats provides the measurement plumbing shared by the pipeline
// stages and the figure harness: per-stage time breakdowns (split into
// packing, local processing, and exchange, the decomposition of the paper's
// Fig. 4 and Figs. 9–10), load-imbalance and efficiency calculators, and
// the series and table formatting that regenerates the paper's plots as
// text.
package stats

import (
	"fmt"
	"math"
	"strings"
	"time"

	"dibella/internal/machine"
	"dibella/internal/spmd"
)

// Breakdown splits one stage's cost into the paper's three buckets, in
// both modeled (virtual) seconds and measured host wall time.
//
// The Overlap buckets account for non-blocking exchanges: OverlapVirtual
// is the portion of ExchangeVirtual that ran concurrently with the Pack and
// Local work (so stage elapsed time is max-like, not a sum), and
// OverlapWall is the host compute time that ran while an exchange was in
// flight. ExchangeWall counts only time actually blocked. Bulk-synchronous
// stages leave both at zero and the arithmetic reduces to the old sums.
type Breakdown struct {
	PackVirtual     float64
	LocalVirtual    float64
	ExchangeVirtual float64
	OverlapVirtual  float64
	PackWall        time.Duration
	LocalWall       time.Duration
	ExchangeWall    time.Duration
	OverlapWall     time.Duration
}

// TotalVirtual returns the modeled elapsed seconds: the bucket sum minus
// the exchange time hidden under computation.
func (b Breakdown) TotalVirtual() float64 {
	return b.PackVirtual + b.LocalVirtual + b.ExchangeVirtual - b.OverlapVirtual
}

// TotalWall returns the measured host time across all buckets.
// ExchangeWall is blocked time only, so no overlap subtraction applies.
func (b Breakdown) TotalWall() time.Duration {
	return b.PackWall + b.LocalWall + b.ExchangeWall
}

// OverlapFraction returns the share of the stage's exchange cost that was
// hidden under computation: modeled when any virtual time exists, measured
// otherwise (where the denominator is blocked plus overlapped time).
func (b Breakdown) OverlapFraction() float64 {
	if b.ExchangeVirtual > 0 {
		return b.OverlapVirtual / b.ExchangeVirtual
	}
	denom := b.ExchangeWall + b.OverlapWall
	if denom <= 0 {
		return 0
	}
	return float64(b.OverlapWall) / float64(denom)
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.PackVirtual += o.PackVirtual
	b.LocalVirtual += o.LocalVirtual
	b.ExchangeVirtual += o.ExchangeVirtual
	b.OverlapVirtual += o.OverlapVirtual
	b.PackWall += o.PackWall
	b.LocalWall += o.LocalWall
	b.ExchangeWall += o.ExchangeWall
	b.OverlapWall += o.OverlapWall
}

// AddComm adds what a Comm's collectives cost between two of its Stats
// snapshots, pre and post: exchange and overlap time, modeled and
// measured.
func (b *Breakdown) AddComm(pre, post spmd.Stats) {
	b.ExchangeVirtual += post.ExchangeVirtual - pre.ExchangeVirtual
	b.OverlapVirtual += post.OverlapVirtual - pre.OverlapVirtual
	b.ExchangeWall += post.ExchangeWall - pre.ExchangeWall
	b.OverlapWall += post.OverlapWall - pre.OverlapWall
}

// Price converts ops counted operations at rate into modeled seconds,
// ticks c's clock by them and returns them. A nil model prices everything
// at zero (wall time is still measured).
func Price(c *spmd.Comm, model *machine.Model, ops, rate, workingSet float64) float64 {
	if model == nil || ops <= 0 {
		return 0
	}
	d := model.ComputeTime(ops, rate, workingSet)
	c.Tick(d)
	return d
}

// Imbalance returns max/mean over per-rank values — the paper's Fig. 8
// metric, where 1.0 is perfect balance. It returns 0 for empty input and
// 1 when the mean is zero.
func Imbalance(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	maxV, sum := math.Inf(-1), 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
		sum += v
	}
	mean := sum / float64(len(values))
	if mean == 0 {
		return 1
	}
	return maxV / mean
}

// Max returns the maximum (0 for empty input).
func Max(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Efficiency returns strong-scaling efficiency relative to a base
// configuration: (tBase·nBase)/(t·n). The paper plots efficiency "over 1
// node", i.e. nBase=1.
func Efficiency(tBase float64, nBase int, t float64, n int) float64 {
	if t <= 0 || n <= 0 {
		return 0
	}
	return tBase * float64(nBase) / (t * float64(n))
}

// Series is one plotted line: a name with (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// FormatTable renders rows under headers with aligned columns, the output
// format of the figure harness.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
