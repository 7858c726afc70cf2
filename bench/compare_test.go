package main

import (
	"io"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.6, 1.0, 1.4, 0.7, 1.3, 1.0}
	for _, c := range []struct {
		name, better string
		base, cur    []float64
		want         string
	}{
		{"same", "lower", steady, scaled(steady, 1.05), verdictSame},
		{"slower", "lower", steady, scaled(steady, 1.2), verdictRegression},
		{"faster", "lower", steady, scaled(steady, 0.8), verdictBetter},
		{"lower throughput", "higher", steady, scaled(steady, 0.8), verdictRegression},
		{"noisy", "lower", steady, scaled(noisy, 1.2), verdictUnresolved},
		{"noisy but separated", "lower", steady, scaled(noisy, 2), verdictRegression},
	} {
		if got, _ := judge(c.better, 0.1, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReportsFails(t *testing.T) {
	bound := 0.1
	b := &benchmarkFile{EndToEnd: []metricDef{{Name: "sim_s", Unit: "s", Better: "lower", Bound: &bound}}}
	mk := func(sim []float64, makespan float64, failed int) *report {
		return &report{Workloads: []workloadReport{{
			Name: "w", Attempted: 10, Failed: failed,
			Metrics: map[string]metricReport{"sim_s": {Unit: "s", Better: "lower", Samples: sim, Summary: summarize(sim)}},
			Exact:   map[string]valueReport{"sim_makespan_s": {Unit: "s", Value: makespan}},
		}}}
	}
	base := mk([]float64{1, 1.01, 0.99}, 100, 0)
	for _, c := range []struct {
		name string
		cur  *report
		want bool
	}{
		{"identical", mk([]float64{1, 1.01, 0.99}, 100, 0), true},
		{"regression", mk([]float64{1.3, 1.31, 1.29}, 100, 0), false},
		{"exact outcome changed", mk([]float64{1, 1.01, 0.99}, 100.000001, 0), false},
		{"failed operation", mk([]float64{1, 1.01, 0.99}, 100, 1), false},
		{"workload missing", &report{}, false},
	} {
		var out strings.Builder
		if got := compareReports(&out, b, base, c.cur); got != c.want {
			t.Errorf("%s: compare = %v, want %v\n%s", c.name, got, c.want, out.String())
		}
	}
	if !compareReports(io.Discard, b, base, base) {
		t.Error("a report does not compare equal to itself")
	}
}
