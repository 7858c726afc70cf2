// Package metrics provides the summary statistics the evaluation reports:
// percentiles/CDFs of completion times, percentage reductions relative to
// a baseline, and coefficient of variation.
//
// Determinism obligations: every statistic is a pure function of its
// input slice. Percentiles and CDFs sort a copy, but means and CoV sum in
// input order — floating-point summation is order-sensitive in the low
// bits, so callers must supply slices built in a deterministic order.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the q-quantile (q in [0,1]) of values by linear
// interpolation between the two closest ranks of a sorted copy (the
// "exclusive" variant over index q·(n−1); numpy's default). Returns NaN
// for empty input.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// P50 returns the median. Shorthand for Percentile(values, 0.50).
func P50(values []float64) float64 { return Percentile(values, 0.50) }

// P95 returns the 95th percentile, the tail metric the paper's Fig 9
// reports. Shorthand for Percentile(values, 0.95).
func P95(values []float64) float64 { return Percentile(values, 0.95) }

// P99 returns the 99th percentile. Shorthand for Percentile(values, 0.99).
func P99(values []float64) float64 { return Percentile(values, 0.99) }

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Reduction returns the percentage reduction of value relative to base:
// 100·(base − value)/base. Positive means value improved on base.
func Reduction(base, value float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - value) / base
}

// Slowdown returns the multiplicative slowdown of faulty relative to clean:
// faulty/clean. 1 means unaffected, 2 means twice as slow. A zero clean
// baseline with nonzero faulty is an infinite slowdown (+Inf); only 0/0 —
// both runs free — reports 1.
func Slowdown(clean, faulty float64) float64 {
	if clean == 0 {
		if faulty > 0 {
			return math.Inf(1)
		}
		return 1
	}
	return faulty / clean
}

// CoV returns the coefficient of variation (σ/μ), 0 for empty or zero-mean
// input.
func CoV(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	mean := Mean(values)
	if mean == 0 {
		return 0
	}
	variance := 0.0
	for _, v := range values {
		d := v - mean
		variance += float64(d * d)
	}
	variance /= float64(len(values))
	return math.Sqrt(variance) / mean
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF returns the empirical CDF of values at n evenly spaced fractions
// (plus the max at fraction 1).
func CDF(values []float64, n int) []CDFPoint {
	if len(values) == 0 || n <= 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		f := float64(i) / float64(n)
		idx := int(math.Ceil(f*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, CDFPoint{Value: sorted[idx], Fraction: f})
	}
	return out
}

// Table is a simple fixed-column text table for experiment output.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float at the given precision for table cells.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// Pct formats a percentage cell.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// D formats an integer count for table cells.
func D(n int) string { return fmt.Sprintf("%d", n) }
