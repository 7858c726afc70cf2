package experiments

import (
	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/workload"
)

// Fig10 reproduces the DAG-workload experiment (§6.3): TPC-H queries run
// as recurring (planned) jobs while a batch of W1 MapReduce jobs runs
// alongside under Yarn-CS scheduling. Paper: ~18.5% median / 21% mean
// query-time reduction with Corral.
func Fig10(p Params) (*Report, error) {
	r := newReport("Fig 10: TPC-H query completion times with Corral")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)

	queries := workload.TPCH(workload.Config{
		Scale: prof.scale, Seed: p.Seed + 4, Jobs: prof.tpchJobs,
		ArrivalWindow: prof.arrival / 2,
	}, 0)
	// Interfering MapReduce batch, always run as ad-hoc under Yarn-CS
	// policies (submitted at t=0 like the paper's batch).
	noise := workload.MarkAdHoc(workload.W1(prof.wcfg(p.Seed+5, prof.w1Jobs/2, 0)))
	workload.Renumber(noise, len(queries)+1)
	// The plan covers only the queries; Yarn-CS ignores it.
	res, err := runAll(topo, append(queries, noise...), planner.MinimizeAvgCompletion, p.Seed,
		runtime.YarnCS, runtime.Corral)
	if err != nil {
		return nil, err
	}

	isQuery := func(j *runtime.JobResult) bool { return !j.AdHoc }
	yq := completionTimes(res[runtime.YarnCS], isQuery)
	cq := completionTimes(res[runtime.Corral], isQuery)
	t := &metrics.Table{
		Title:   "query completion time percentiles (seconds)",
		Columns: []string{"percentile", "yarn-cs", "corral", "reduction"},
	}
	percentileRows(t, func(q float64) string { return metrics.F(q, 2) }, true, yq, cq)
	r.table(t)
	r.set("median_reduction_pct", metrics.Reduction(metrics.Percentile(yq, 0.5), metrics.Percentile(cq, 0.5)))
	r.set("mean_reduction_pct", metrics.Reduction(metrics.Mean(yq), metrics.Mean(cq)))
	return r, nil
}
