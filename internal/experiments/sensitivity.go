package experiments

import (
	"fmt"
	"math"

	"corral/internal/job"
	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/workload"
)

// sensitivitySeeds returns the seeds a sensitivity sweep averages over —
// the sweeps are the noisiest experiments (one number per configuration),
// so every size averages three runs, as the paper averages repeated
// cluster runs.
func sensitivitySeeds(p Params) []int64 {
	return []int64{p.Seed, p.Seed + 101, p.Seed + 202}
}

// Fig12 sweeps background core traffic (paper: 30/35/40 Gbps per rack ≈
// 50/58/67% of the 60 Gbps uplink) and reports Corral's benefit over
// Yarn-CS, which should grow substantially with load.
func Fig12(p Params) (*Report, error) {
	r := newReport("Fig 12: benefit vs background traffic, W1")
	prof := profileFor(p.Size)
	fracs := []float64{0.50, 0.58, 0.67}
	seeds := sensitivitySeeds(p)

	t := &metrics.Table{
		Title:   "% reduction vs Yarn-CS as background load grows",
		Columns: []string{"background", "makespan (batch)", "avg job time (online)"},
	}
	// One cell per (background level, seed); each runs its own batch and
	// online simulations. Cells fan out over the sweep worker pool and the
	// per-level averages reduce in seed order, exactly as the old serial
	// loops did (see internal/pool for the determinism rules).
	type cellOut struct {
		makespanRed, avgRed float64
	}
	cells := make([]cellOut, len(fracs)*len(seeds))
	if err := pool.For(len(cells), func(ci int) error {
		frac, seed := fracs[ci/len(seeds)], seeds[ci%len(seeds)]
		topo := prof.withBackground(frac)
		batch := genWorkload("W1", prof, seed, 0)
		bres, err := runAll(topo, batch, planner.MinimizeMakespan, seed,
			runtime.YarnCS, runtime.Corral)
		if err != nil {
			return err
		}
		cells[ci].makespanRed = metrics.Reduction(bres[runtime.YarnCS].Makespan, bres[runtime.Corral].Makespan)

		online, err := genOnlineWorkload("W1", prof, seed)
		if err != nil {
			return err
		}
		ores, err := runAll(topo, online, planner.MinimizeAvgCompletion, seed,
			runtime.YarnCS, runtime.Corral)
		if err != nil {
			return err
		}
		cells[ci].avgRed = metrics.Reduction(ores[runtime.YarnCS].AvgCompletionTime(), ores[runtime.Corral].AvgCompletionTime())
		return nil
	}); err != nil {
		return nil, err
	}
	for fi, frac := range fracs {
		var makespanRed, avgRed float64
		for si := range seeds {
			makespanRed += cells[fi*len(seeds)+si].makespanRed
			avgRed += cells[fi*len(seeds)+si].avgRed
		}
		makespanRed /= float64(len(seeds))
		avgRed /= float64(len(seeds))

		// Rounded: int(0.58*100) truncates 57.99999999999999 to 57.
		pct := int(math.Round(frac * 100))
		t.AddRow(fmt.Sprintf("%d%% uplink", pct), metrics.Pct(makespanRed), metrics.Pct(avgRed))
		r.set(fmt.Sprintf("makespan_reduction_pct_bg%d", pct), makespanRed)
		r.set(fmt.Sprintf("avgtime_reduction_pct_bg%d", pct), avgRed)
	}
	r.table(t)
	return r, nil
}

// Fig13a injects input-size prediction error: the planner plans on the
// predicted (unperturbed) workload while the cluster runs jobs whose data
// volumes differ by up to ±err (paper: benefits stay 25-35% up to 50%).
func Fig13a(p Params) (*Report, error) {
	prof := profileFor(p.Size)
	return perturbSweep(p, "Fig 13a: robustness to error in predicted data size, W1 batch",
		&metrics.Table{
			Title:   "% reduction in makespan vs Yarn-CS under size error",
			Columns: []string{"error", "reduction"},
		},
		"makespan_reduction_pct_err%d", planner.MinimizeMakespan,
		func(seed int64) ([]*job.Job, error) { return genWorkload("W1", prof, seed, 0), nil },
		workload.PerturbSizes,
		func(res *runtime.Result) float64 { return res.Makespan })
}

// Fig13b injects job start-time error: a fraction f of jobs is delayed by
// up to ±t (t sized like the paper: several times the inter-arrival time)
// while the plan assumed the original arrivals (paper: benefit declines
// from ~40% to ≥25% as f goes 0→50%).
func Fig13b(p Params) (*Report, error) {
	prof := profileFor(p.Size)
	return perturbSweep(p, "Fig 13b: robustness to error in job arrival times, W1 online",
		&metrics.Table{
			Title:   "% reduction in average job time vs Yarn-CS under arrival error",
			Columns: []string{"% jobs delayed", "reduction"},
		},
		"avgtime_reduction_pct_delayed%d", planner.MinimizeAvgCompletion,
		func(seed int64) ([]*job.Job, error) { return genOnlineWorkload("W1", prof, seed) },
		func(predicted []*job.Job, f float64, seed int64) []*job.Job {
			window := 0.0
			for _, j := range predicted {
				window = max(window, j.Arrival)
			}
			// The paper's t = 4 min on a 60-min window (~6.67x the mean
			// inter-arrival gap); keep the same ratio at our window size.
			return workload.PerturbArrivals(predicted, f, window*4/60, seed)
		},
		(*runtime.Result).AvgCompletionTime)
}

// perturbSweep is the (error level × seed) grid of Fig 13a/13b. Each
// seed's predicted workload is planned once with obj; each cell perturbs
// it at one level and runs Yarn-CS and Corral, Corral keeping the plan
// made for the prediction. Cells fan out over the sweep worker pool, and
// each level's reduction in metric averages its seeds in seed order
// (internal/pool). Rows and keyFmt keys go out per level in percent.
func perturbSweep(p Params, name string, t *metrics.Table, keyFmt string, obj planner.Objective,
	predict func(seed int64) ([]*job.Job, error),
	perturb func(predicted []*job.Job, level float64, seed int64) []*job.Job,
	metric func(*runtime.Result) float64) (*Report, error) {
	r := newReport(name)
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)
	seeds := sensitivitySeeds(p)

	predicted := make([][]*job.Job, len(seeds))
	plans := make([]*planner.Plan, len(seeds))
	for i, seed := range seeds {
		jobs, err := predict(seed)
		if err != nil {
			return nil, err
		}
		if plans[i], err = planJobs(topo, jobs, obj); err != nil {
			return nil, err
		}
		predicted[i] = jobs
	}

	levels := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	reds := make([]float64, len(levels)*len(seeds))
	if err := pool.For(len(reds), func(ci int) error {
		level, i := levels[ci/len(seeds)], ci%len(seeds)
		seed := seeds[i]
		actual := perturb(predicted[i], level, seed+int64(level*100))
		res, err := runCells([]runtime.Options{
			{Cluster: topo, Scheduler: runtime.YarnCS, Seed: seed},
			{Cluster: topo, Scheduler: runtime.Corral, Plan: plans[i], Seed: seed},
		}, actual)
		if err != nil {
			return err
		}
		reds[ci] = metrics.Reduction(metric(res[0]), metric(res[1]))
		return nil
	}); err != nil {
		return nil, err
	}
	for li, level := range levels {
		red := 0.0
		for si := range seeds {
			red += reds[li*len(seeds)+si]
		}
		red /= float64(len(seeds))
		t.AddRow(metrics.Pct(100*level), metrics.Pct(red))
		r.set(fmt.Sprintf(keyFmt, int(level*100)), red)
	}
	r.table(t)
	return r, nil
}
