package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// HighPct is the highest of highPercentiles that leaves at least ten
	// samples above it, and High its value; both are zero below 20 samples.
	HighPct float64 `json:"high_pct,omitempty"`
	High    float64 `json:"high,omitempty"`
}

var highPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.Q1, s.Q3 = quartiles(sorted)
	if len(sorted) >= 20 {
		for _, p := range highPercentiles {
			if float64(len(sorted))*(100-p)/100 >= 10-1e-9 { // tolerate rounding of 100-p
				s.HighPct, s.High = p, quantile(sorted, p/100)
				break
			}
		}
	}
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quantile interpolates linearly between closest ranks of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quartiles matches Python's statistics.quantiles(data, n=4), whose
// default "exclusive" method places the cut points at ranks (n+1)/4 and
// 3(n+1)/4, so spreads printed here agree with ones computed in Python.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j // outside [0, 4] it extrapolates, as Python does
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
