package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestSummarizeMatchesPythonQuantiles pins the median and quartiles to
// Python's statistics.quantiles(data, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{0.5, 9, 2.25, 7, 1, 3.5, 8}, 1, 3.5, 8},
	}
	for _, c := range cases {
		s := summarize(c.data)
		if !near(s.Q1, c.q1) || !near(s.Median, c.med) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v) = q1 %v median %v q3 %v, want %v %v %v", c.data, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
		if want := (c.q3 - c.q1) / c.med; !near(s.spread(), want) {
			t.Errorf("spread(%v) = %v, want %v", c.data, s.spread(), want)
		}
	}
	if s := summarize([]float64{4}); s.Median != 4 || s.Q1 != 4 || s.Q3 != 4 || s.N != 1 {
		t.Errorf("summarize of one sample = %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.spread() != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

// TestHighPercentileLeavesTenSamplesAbove checks that the reported tail
// percentile is the highest one with at least ten samples beyond it.
func TestHighPercentileLeavesTenSamplesAbove(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		s := summarize(xs)
		if !near(s.HighPct, c.want) {
			t.Errorf("n=%d: high percentile p%v, want p%v", c.n, s.HighPct, c.want)
			continue
		}
		if c.want == 0 {
			continue
		}
		above := 0
		for _, x := range xs {
			if x > s.High {
				above++
			}
		}
		if above < 10 {
			t.Errorf("n=%d: p%v = %v leaves %d samples above it", c.n, s.HighPct, s.High, above)
		}
	}
}
