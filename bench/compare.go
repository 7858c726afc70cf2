package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one (workload, metric) comparison.
const (
	verdictSame       = "within bound"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (workload, metric) of two -json reports
// and reports whether new holds: no regression beyond a bound, no changed
// exact outcome, no failed operation and nothing missing.
func compareFiles(w io.Writer, b *benchmarkFile, basePath, newPath string) (bool, error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	return compareReports(w, b, base, cur), nil
}

func compareReports(w io.Writer, b *benchmarkFile, base, cur *report) bool {
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "FAIL: "+format+"\n", args...)
	}
	byName := map[string]workloadReport{}
	for _, wr := range cur.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-13s %-24s %-8s %12s %12s %8s %6s %7s %7s  %s\n",
		"workload", "metric", "unit", "base", "new", "change", "bound", "spr.b", "spr.n", "verdict")
	for _, bw := range base.Workloads {
		nw, found := byName[bw.Name]
		if !found {
			fail("%s: missing from %s", bw.Name, "new report")
			continue
		}
		for _, r := range []workloadReport{bw, nw} {
			if r.Failed > 0 {
				fail("%s: %d of %d operations failed", r.Name, r.Failed, r.Attempted)
			}
		}
		for _, def := range b.EndToEnd {
			bm, okB := bw.Metrics[def.Name]
			nm, okN := nw.Metrics[def.Name]
			if !okB || !okN {
				if len(bw.Metrics)+len(nw.Metrics) > 0 {
					fail("%s %s: missing from a report", bw.Name, def.Name)
				}
				continue
			}
			bound := 0.0
			if def.Bound != nil {
				bound = *def.Bound
			}
			v, change := judge(def.Better, bound, bm.Samples, nm.Samples)
			if v == verdictRegression {
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-24s %-8s %12.6g %12.6g %+7.1f%% %5.0f%% %6.1f%% %6.1f%%  %s\n",
				bw.Name, def.Name, def.Unit, bm.Summary.Median, nm.Summary.Median, 100*change,
				100*bound, 100*bm.Summary.spread(), 100*nm.Summary.spread(), v)
		}
		names := keys(bw.Exact)
		for _, name := range keys(nw.Exact) {
			if _, dup := bw.Exact[name]; !dup {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			bv, okB := bw.Exact[name]
			nv, okN := nw.Exact[name]
			same := okB && okN && math.Float64bits(bv.Value) == math.Float64bits(nv.Value)
			v := "identical"
			if !same {
				v = "CHANGED"
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-24s %-8s %12.6g %12.6g %8s %6s %7s %7s  %s\n",
				bw.Name, name, bv.Unit, bv.Value, nv.Value, "", "exact", "", "", v)
		}
	}
	return ok
}

// judge applies a metric's bound to the change of the medians, signed so
// that a positive change is worse. When either side's interquartile spread
// is wider than the bound the medians cannot tell a regression from noise,
// and the verdict is unresolved unless every sample of one side beats
// every sample of the other.
func judge(better string, bound float64, base, cur []float64) (string, float64) {
	sb, sn := summarize(base), summarize(cur)
	change := 0.0
	if sb.Median != 0 {
		change = (sn.Median - sb.Median) / math.Abs(sb.Median)
	}
	if better == "higher" {
		change = -change
	}
	wide := sb.spread() > bound || sn.spread() > bound
	if wide && !separated(base, cur) {
		return verdictUnresolved, change
	}
	switch {
	case change > bound:
		return verdictRegression, change
	case change < -bound:
		return verdictBetter, change
	}
	return verdictSame, change
}

// separated reports whether every sample of one side beats every sample of
// the other.
func separated(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	return maxA < minB || maxB < minA
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
