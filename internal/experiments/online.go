package experiments

import (
	"fmt"

	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/runtime"
)

// Fig8 reports online completion-time distributions for W1/W2/W3 under all
// four schedulers (paper: Corral 30-56% better than Yarn-CS at the median,
// 26-36% on average).
func Fig8(p Params) (*Report, error) {
	r := newReport("Fig 8: completion time CDFs, online arrivals")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)
	for _, w := range batchWorkloads(p.Size) {
		jobs, err := genOnlineWorkload(w, prof, p.Seed)
		if err != nil {
			return nil, err
		}
		res, err := runAll(topo, jobs, planner.MinimizeAvgCompletion, p.Seed, allSchedulers...)
		if err != nil {
			return nil, err
		}
		t := &metrics.Table{
			Title:   w + ": completion time percentiles (seconds)",
			Columns: []string{"percentile", "yarn-cs", "corral", "local-shuffle", "shufflewatcher"},
		}
		times := make([][]float64, len(allSchedulers)) // Yarn-CS, Corral, ...
		for i, k := range allSchedulers {
			times[i] = completionTimes(res[k], nil)
		}
		percentileRows(t, pLabel, false, times...)
		r.table(t)
		r.set(w+"_median_reduction_pct", metrics.Reduction(
			metrics.Percentile(times[0], 0.5), metrics.Percentile(times[1], 0.5)))
		r.set(w+"_avg_reduction_pct", metrics.Reduction(
			res[runtime.YarnCS].AvgCompletionTime(), res[runtime.Corral].AvgCompletionTime()))
	}
	return r, nil
}

// Fig9 reports the online average-completion-time reduction by job size
// bin for W1 (paper: Corral 30-36% across bins; ShuffleWatcher helps small
// jobs but hurts large ones).
func Fig9(p Params) (*Report, error) {
	r := newReport("Fig 9: reduction in average job time by job size, W1 online")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)
	jobs, err := genOnlineWorkload("W1", prof, p.Seed)
	if err != nil {
		return nil, err
	}
	res, err := runAll(topo, jobs, planner.MinimizeAvgCompletion, p.Seed, allSchedulers...)
	if err != nil {
		return nil, err
	}
	bins := []struct {
		name string
		keep func(*runtime.JobResult) bool
	}{
		{"small", func(j *runtime.JobResult) bool { return j.Name == "w1-small" }},
		{"medium", func(j *runtime.JobResult) bool { return j.Name == "w1-medium" }},
		{"large", func(j *runtime.JobResult) bool { return j.Name == "w1-large" }},
	}
	t := &metrics.Table{
		Title:   "% reduction in average completion time vs Yarn-CS",
		Columns: []string{"bin", "corral", "local-shuffle", "shufflewatcher"},
	}
	for _, b := range bins {
		base := metrics.Mean(completionTimes(res[runtime.YarnCS], b.keep))
		row := []string{b.name}
		for _, k := range allSchedulers[1:] {
			red := metrics.Reduction(base, metrics.Mean(completionTimes(res[k], b.keep)))
			row = append(row, metrics.Pct(red))
			r.set(fmt.Sprintf("%s_%s_avg_reduction_pct", b.name, k), red)
		}
		t.AddRow(row...)
	}
	r.table(t)
	return r, nil
}
