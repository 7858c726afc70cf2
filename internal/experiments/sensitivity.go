package experiments

import (
	"fmt"

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

		label := fmt.Sprintf("%d%% uplink", int(frac*100))
		t.AddRow(label, metrics.Pct(makespanRed), metrics.Pct(avgRed))
		r.set(fmt.Sprintf("makespan_reduction_pct_bg%d", int(frac*100)), makespanRed)
		r.set(fmt.Sprintf("avgtime_reduction_pct_bg%d", int(frac*100)), avgRed)
	}
	r.table(t)
	return r, nil
}

// Fig13a injects input-size prediction error: the planner plans on the
// predicted (unperturbed) workload while the cluster runs jobs whose data
// volumes differ by up to ±err (paper: benefits stay 25-35% up to 50%).
func Fig13a(p Params) (*Report, error) {
	r := newReport("Fig 13a: robustness to error in predicted data size, W1 batch")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)
	seeds := sensitivitySeeds(p)

	type seedState struct {
		predicted []*job.Job
		plan      *planner.Plan
	}
	states := make([]seedState, len(seeds))
	for i, seed := range seeds {
		predicted := genWorkload("W1", prof, seed, 0)
		plan, err := planJobs(topo, predicted, planner.MinimizeMakespan)
		if err != nil {
			return nil, err
		}
		states[i] = seedState{predicted: predicted, plan: plan}
	}

	t := &metrics.Table{
		Title:   "% reduction in makespan vs Yarn-CS under size error",
		Columns: []string{"error", "reduction"},
	}
	// (error level, seed) grid, fanned out per the internal/pool rules: the
	// seed states are precomputed above, each cell runs its own pair of
	// simulations, and per-level averages reduce in seed order.
	errFracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	reds := make([]float64, len(errFracs)*len(seeds))
	if err := pool.For(len(reds), func(ci int) error {
		errFrac, i := errFracs[ci/len(seeds)], ci%len(seeds)
		seed := seeds[i]
		actual := workload.PerturbSizes(states[i].predicted, errFrac, seed+int64(errFrac*100))
		yarn, err := runtime.Run(runtime.Options{
			Cluster: topo, Scheduler: runtime.YarnCS, Seed: seed,
		}, workload.Clone(actual))
		if err != nil {
			return err
		}
		corral, err := runtime.Run(runtime.Options{
			Cluster: topo, Scheduler: runtime.Corral, Plan: states[i].plan, Seed: seed,
		}, workload.Clone(actual))
		if err != nil {
			return err
		}
		reds[ci] = metrics.Reduction(yarn.Makespan, corral.Makespan)
		return nil
	}); err != nil {
		return nil, err
	}
	for fi, errFrac := range errFracs {
		red := 0.0
		for si := range seeds {
			red += reds[fi*len(seeds)+si]
		}
		red /= float64(len(seeds))
		t.AddRow(metrics.Pct(100*errFrac), metrics.Pct(red))
		r.set(fmt.Sprintf("makespan_reduction_pct_err%d", int(errFrac*100)), red)
	}
	r.table(t)
	return r, nil
}

// Fig13b injects job start-time error: a fraction f of jobs is delayed by
// up to ±t (t sized like the paper: several times the inter-arrival time)
// while the plan assumed the original arrivals (paper: benefit declines
// from ~40% to ≥25% as f goes 0→50%).
func Fig13b(p Params) (*Report, error) {
	r := newReport("Fig 13b: robustness to error in job arrival times, W1 online")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)
	seeds := sensitivitySeeds(p)

	type seedState struct {
		predicted []*job.Job
		plan      *planner.Plan
		delay     float64
	}
	states := make([]seedState, len(seeds))
	for i, seed := range seeds {
		predicted, err := genOnlineWorkload("W1", prof, seed)
		if err != nil {
			return nil, err
		}
		plan, err := planJobs(topo, predicted, planner.MinimizeAvgCompletion)
		if err != nil {
			return nil, err
		}
		window := 0.0
		for _, j := range predicted {
			if j.Arrival > window {
				window = j.Arrival
			}
		}
		// The paper's t = 4 min on a 60-min window (~6.67x the mean
		// inter-arrival gap); keep the same ratio at our window size.
		states[i] = seedState{predicted: predicted, plan: plan, delay: window * 4 / 60}
	}

	t := &metrics.Table{
		Title:   "% reduction in average job time vs Yarn-CS under arrival error",
		Columns: []string{"% jobs delayed", "reduction"},
	}
	// Same (level, seed) grid fan-out as Fig13a, per the internal/pool rules.
	delayFracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	reds := make([]float64, len(delayFracs)*len(seeds))
	if err := pool.For(len(reds), func(ci int) error {
		f, i := delayFracs[ci/len(seeds)], ci%len(seeds)
		seed, st := seeds[i], states[i]
		actual := workload.PerturbArrivals(st.predicted, f, st.delay, seed+int64(f*100))
		yarn, err := runtime.Run(runtime.Options{
			Cluster: topo, Scheduler: runtime.YarnCS, Seed: seed,
		}, workload.Clone(actual))
		if err != nil {
			return err
		}
		corral, err := runtime.Run(runtime.Options{
			Cluster: topo, Scheduler: runtime.Corral, Plan: st.plan, Seed: seed,
		}, workload.Clone(actual))
		if err != nil {
			return err
		}
		reds[ci] = metrics.Reduction(yarn.AvgCompletionTime(), corral.AvgCompletionTime())
		return nil
	}); err != nil {
		return nil, err
	}
	for fi, f := range delayFracs {
		red := 0.0
		for si := range seeds {
			red += reds[fi*len(seeds)+si]
		}
		red /= float64(len(seeds))
		t.AddRow(metrics.Pct(100*f), metrics.Pct(red))
		r.set(fmt.Sprintf("avgtime_reduction_pct_delayed%d", int(f*100)), red)
	}
	r.table(t)
	return r, nil
}
