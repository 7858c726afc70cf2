package experiments

import (
	"fmt"
	"sort"

	"corral/internal/job"
	"corral/internal/metrics"
	"corral/internal/model"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/workload"
)

// AblationAlpha toggles the §4.5 data-imbalance penalty and reports its
// effect on data balance (CoV) and makespan.
func AblationAlpha(p Params) (*Report, error) {
	r := newReport("Ablation: data-imbalance penalty α (§4.5)")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)
	jobs := genWorkload("W1", prof, p.Seed, 0)
	cm := model.FromTopology(topo)

	t := &metrics.Table{
		Title:   "Corral with and without the α·D_I/r penalty",
		Columns: []string{"alpha", "input CoV", "makespan (s)"},
	}
	// Both ablation cells (penalty off / on) plan and simulate
	// independently; fan them out and render in cell order (internal/pool).
	alphas := []float64{0, -1} // 0 = off, -1 = paper default
	results := make([]*runtime.Result, len(alphas))
	if err := pool.For(len(alphas), func(i int) error {
		plan, err := planner.New(planner.Input{Cluster: cm, Jobs: jobs, Alpha: alphas[i]})
		if err != nil {
			return err
		}
		res, err := runtime.Run(runtime.Options{
			Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: p.Seed,
		}, workload.Clone(jobs))
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}); err != nil {
		return nil, err
	}
	for i, alpha := range alphas {
		res := results[i]
		label := "default (1/rack-uplink)"
		key := "on"
		if alpha == 0 {
			label, key = "off", "off"
		}
		t.AddRow(label, metrics.F(res.InputRackCoV, 4), metrics.F(res.Makespan, 1))
		r.set("cov_alpha_"+key, res.InputRackCoV)
		r.set("makespan_alpha_"+key, res.Makespan)
	}
	r.table(t)
	return r, nil
}

// AblationProvision compares the paper's run-to-the-end provisioning loop
// (explore all J·R allocations) against stopping at the first candidate
// (every job one rack), quantifying what the search buys.
func AblationProvision(p Params) (*Report, error) {
	r := newReport("Ablation: provisioning search depth (§4.2)")
	prof := profileFor(p.Size)
	cm := model.FromTopology(prof.topo)
	jobs := genWorkload("W1", prof, p.Seed, 0)

	full, err := planner.New(planner.Input{Cluster: cm, Jobs: jobs, Alpha: -1})
	if err != nil {
		return nil, err
	}
	// One-rack-per-job baseline: evaluate via a single-rack response cap by
	// planning on a 1-rack "view" of each job. Reuse the planner with a
	// cluster of the same racks but force r_j = 1 by giving the scheduler
	// jobs whose response beyond r=1 is prohibitive — simpler: compute the
	// LPT schedule directly here.
	single := singleRackMakespan(cm, jobs)

	t := &metrics.Table{
		Title:   "estimated makespan under the response functions",
		Columns: []string{"strategy", "makespan (s)"},
	}
	t.AddRow("full provisioning search", metrics.F(full.Makespan, 1))
	t.AddRow("all jobs on one rack (LPT)", metrics.F(single, 1))
	r.table(t)
	r.set("makespan_full", full.Makespan)
	r.set("makespan_onerack", single)
	return r, nil
}

// listItem is one job reduced to (width, latency) for LIST scheduling.
type listItem struct {
	width int
	lat   float64
}

// listSchedule runs the Fig 4 LIST allocation over the items in order and
// returns the makespan.
func listSchedule(racks int, items []listItem) float64 {
	f := make([]float64, racks)
	makespan := 0.0
	for _, it := range items {
		sort.Float64s(f)
		start := f[it.width-1]
		finish := start + it.lat
		for i := 0; i < it.width; i++ {
			f[i] = finish
		}
		if finish > makespan {
			makespan = finish
		}
	}
	return makespan
}

// singleRackMakespan computes the LPT makespan when every job is pinned to
// one rack.
func singleRackMakespan(cm model.Cluster, jobs []*job.Job) float64 {
	items := make([]listItem, len(jobs))
	for i, j := range jobs {
		items[i] = listItem{width: 1, lat: cm.Response(j, cm.DefaultAlpha()).At(1)}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].lat > items[b].lat })
	return listSchedule(cm.Racks, items)
}

// AblationPriority compares the prioritization phase's widest-job-first
// ordering against plain LPT (longest first, ignoring width).
func AblationPriority(p Params) (*Report, error) {
	r := newReport("Ablation: widest-job-first vs plain LPT prioritization")
	prof := profileFor(p.Size)
	cm := model.FromTopology(prof.topo)
	jobs := genWorkload("W1", prof, p.Seed, 0)

	plan, err := planner.New(planner.Input{Cluster: cm, Jobs: jobs, Alpha: -1})
	if err != nil {
		return nil, err
	}
	lptOnly := lptMakespan(cm, jobs)

	t := &metrics.Table{
		Title:   "estimated makespan under the response functions",
		Columns: []string{"ordering", "makespan (s)"},
	}
	t.AddRow("widest-job first (paper)", metrics.F(plan.Makespan, 1))
	t.AddRow("plain LPT (width-blind)", metrics.F(lptOnly, 1))
	r.table(t)
	r.set("makespan_widest_first", plan.Makespan)
	r.set("makespan_plain_lpt", lptOnly)
	return r, nil
}

// AblationDelay sweeps the Yarn-CS delay-scheduling patience and reports
// makespan and cross-rack bytes: too little patience loses locality, too
// much idles slots.
func AblationDelay(p Params) (*Report, error) {
	r := newReport("Ablation: delay-scheduling patience (Yarn-CS)")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)
	jobs := genWorkload("W1", prof, p.Seed, 0)
	machines := topo.Machines()

	t := &metrics.Table{
		Title:   "Yarn-CS batch behavior vs patience (in scheduling opportunities)",
		Columns: []string{"node-local patience", "makespan (s)", "cross-rack GB"},
	}
	mults := []float64{0.1, 1, 4}
	patience := make([]int, len(mults))
	cells := make([]runtime.Options, len(mults))
	for i, mult := range mults {
		patience[i] = max(int(float64(machines)*mult), 1)
		cells[i] = runtime.Options{
			Cluster: topo, Scheduler: runtime.YarnCS, Seed: p.Seed,
			DelayNodeLocal: patience[i], DelayRackLocal: 2 * patience[i],
		}
	}
	results, err := runCells(cells, jobs)
	if err != nil {
		return nil, err
	}
	for i, d1 := range patience {
		res := results[i]
		t.AddRow(fmt.Sprintf("%d", d1), metrics.F(res.Makespan, 1), metrics.F(res.CrossRackBytes/1e9, 1))
		r.set(fmt.Sprintf("makespan_d%d", d1), res.Makespan)
		r.set(fmt.Sprintf("crossrack_gb_d%d", d1), res.CrossRackBytes/1e9)
	}
	r.table(t)
	return r, nil
}

// lptMakespan schedules each job on its latency-minimizing rack count with
// plain longest-processing-time ordering (no widest-first criterion) using
// the same LIST allocation as the planner's prioritization phase.
func lptMakespan(cm model.Cluster, jobs []*job.Job) float64 {
	items := make([]listItem, len(jobs))
	for i, j := range jobs {
		f := cm.Response(j, cm.DefaultAlpha())
		r := f.ArgMin()
		items[i] = listItem{width: r, lat: f.At(r)}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].lat > items[b].lat })
	return listSchedule(cm.Racks, items)
}
