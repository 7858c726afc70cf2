package experiments

import (
	"fmt"

	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/runtime"
)

// batchSuite runs W1/W2/W3 as batches under all four schedulers; Fig 6 and
// Fig 7a/b/c are different views of the same runs.
func batchSuite(p Params, workloads []string) (map[string]map[runtime.Kind]*runtime.Result, error) {
	prof := profileFor(p.Size)
	out := make(map[string]map[runtime.Kind]*runtime.Result, len(workloads))
	topo := prof.withBackground(prof.bgFrac)
	for _, w := range workloads {
		jobs := genWorkload(w, prof, p.Seed, 0)
		res, err := runAll(topo, jobs, planner.MinimizeMakespan, p.Seed, allSchedulers...)
		if err != nil {
			return nil, err
		}
		out[w] = res
	}
	return out, nil
}

func batchWorkloads(size Size) []string {
	if size == SizeS {
		// W1's tail at toy scale is a handful of large jobs (high
		// variance); W3's lognormal mix is the statistically stable anchor.
		return []string{"W1", "W3"}
	}
	return []string{"W1", "W2", "W3"}
}

// Fig6 reports batch makespan reduction relative to Yarn-CS (paper: Corral
// 10-33%, LocalShuffle mixed, ShuffleWatcher significantly negative).
func Fig6(p Params) (*Report, error) {
	return batchReduction(p, "Fig 6: reduction in makespan vs Yarn-CS (batch)",
		"% reduction in makespan (higher is better; negative = worse than Yarn-CS)",
		"makespan", func(res *runtime.Result) float64 { return res.Makespan })
}

// Fig7a reports cross-rack data reduction vs Yarn-CS (paper: 20-90% for
// Corral).
func Fig7a(p Params) (*Report, error) {
	return batchReduction(p, "Fig 7a: reduction in cross-rack data vs Yarn-CS (batch)",
		"% reduction in bytes crossing the rack-core boundary",
		"crossrack", func(res *runtime.Result) float64 { return res.CrossRackBytes })
}

// Fig7b reports compute-hours reduction vs Yarn-CS (paper: up to ~20% for
// Corral; ShuffleWatcher can look better here while losing on makespan).
func Fig7b(p Params) (*Report, error) {
	return batchReduction(p, "Fig 7b: reduction in compute-hours vs Yarn-CS (batch)",
		"% reduction in total task wall-clock time",
		"computehours", func(res *runtime.Result) float64 { return res.TaskSeconds })
}

// batchReduction is one view of the batch suite (Fig 6, 7a, 7b): for each
// workload, the reduction in metric vs Yarn-CS of every other scheduler,
// keyed <workload>_<scheduler>_<key>_reduction_pct.
func batchReduction(p Params, name, title, key string, metric func(*runtime.Result) float64) (*Report, error) {
	r := newReport(name)
	suite, err := batchSuite(p, batchWorkloads(p.Size))
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   title,
		Columns: []string{"workload", "corral", "local-shuffle", "shufflewatcher"},
	}
	for _, w := range batchWorkloads(p.Size) {
		res := suite[w]
		base := metric(res[runtime.YarnCS])
		row := []string{w}
		for _, k := range allSchedulers[1:] {
			red := metrics.Reduction(base, metric(res[k]))
			row = append(row, metrics.Pct(red))
			r.set(fmt.Sprintf("%s_%s_%s_reduction_pct", w, k, key), red)
		}
		t.AddRow(row...)
	}
	r.table(t)
	return r, nil
}

// Fig7c reports the distribution of per-job average reduce-task times for
// W1 (paper: Corral ~40% better at the median, more at the tail).
func Fig7c(p Params) (*Report, error) {
	r := newReport("Fig 7c: per-job average reduce time, W1 batch")
	suite, err := batchSuite(p, []string{"W1"})
	if err != nil {
		return nil, err
	}
	res := suite["W1"]
	collect := func(k runtime.Kind) []float64 {
		var v []float64
		for i := range res[k].Jobs {
			if avg := res[k].Jobs[i].AvgReduceTime(); avg > 0 {
				v = append(v, avg)
			}
		}
		return v
	}
	yarn := collect(runtime.YarnCS)
	corral := collect(runtime.Corral)
	t := &metrics.Table{
		Title:   "average reduce time percentiles (seconds)",
		Columns: []string{"percentile", "yarn-cs", "corral", "reduction"},
	}
	percentileRows(t, pLabel, true, yarn, corral)
	r.table(t)
	r.set("reduce_time_median_reduction_pct",
		metrics.Reduction(metrics.Percentile(yarn, 0.5), metrics.Percentile(corral, 0.5)))
	r.set("reduce_time_p90_reduction_pct",
		metrics.Reduction(metrics.Percentile(yarn, 0.9), metrics.Percentile(corral, 0.9)))
	return r, nil
}
