package experiments

import (
	"corral/internal/job"
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

	build := func() []*job.Job {
		queries := workload.TPCH(workload.Config{
			Scale: prof.scale, Seed: p.Seed + 4, Jobs: prof.tpchJobs,
			ArrivalWindow: prof.arrival / 2,
		}, 0)
		// Interfering MapReduce batch, always run as ad-hoc under Yarn-CS
		// policies (submitted at t=0 like the paper's batch).
		noise := workload.MarkAdHoc(workload.W1(prof.wcfg(p.Seed+5, prof.w1Jobs/2, 0)))
		workload.Renumber(noise, len(queries)+1)
		return append(queries, noise...)
	}

	isQuery := func(j *runtime.JobResult) bool { return !j.AdHoc }

	// Yarn-CS baseline: queries unplanned too.
	baseJobs := build()
	yarn, err := runtime.Run(runtime.Options{
		Cluster: topo, Scheduler: runtime.YarnCS, Seed: p.Seed,
	}, baseJobs)
	if err != nil {
		return nil, err
	}
	// Corral: plan only the queries.
	corralJobs := build()
	plan, err := planJobs(topo, corralJobs, planner.MinimizeAvgCompletion)
	if err != nil {
		return nil, err
	}
	corral, err := runtime.Run(runtime.Options{
		Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: p.Seed,
	}, corralJobs)
	if err != nil {
		return nil, err
	}

	yq := completionTimes(yarn, isQuery)
	cq := completionTimes(corral, isQuery)
	t := &metrics.Table{
		Title:   "query completion time percentiles (seconds)",
		Columns: []string{"percentile", "yarn-cs", "corral", "reduction"},
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		y, c := metrics.Percentile(yq, q), metrics.Percentile(cq, q)
		t.AddRow(metrics.F(q, 2), metrics.F(y, 1), metrics.F(c, 1), metrics.Pct(metrics.Reduction(y, c)))
	}
	r.table(t)
	r.set("median_reduction_pct", metrics.Reduction(metrics.Percentile(yq, 0.5), metrics.Percentile(cq, 0.5)))
	r.set("mean_reduction_pct", metrics.Reduction(metrics.Mean(yq), metrics.Mean(cq)))
	return r, nil
}
