package experiments

import (
	"fmt"
	"time"

	"corral/internal/job"
	"corral/internal/lp"
	"corral/internal/metrics"
	"corral/internal/model"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/workload"
)

// genWorkload builds one of the named MapReduce workloads at the profile's
// scale. window > 0 spreads arrivals (online scenario).
func genWorkload(name string, prof profile, seed int64, window float64) []*job.Job {
	switch name {
	case "W1":
		return workload.W1(prof.wcfg(seed, prof.w1Jobs, window))
	case "W2":
		return workload.W2(prof.wcfg(seed, prof.w2Jobs, window))
	case "W3":
		return workload.W3(prof.wcfg(seed, prof.w3Jobs, window))
	}
	panic("experiments: unknown workload " + name)
}

// genOnlineWorkload builds an online instance of the named workload whose
// arrival window is sized relative to the workload's own (estimated) batch
// makespan, reproducing the paper's load regime: arrivals over 60 min for
// batches whose makespan exceeds 60 min, i.e. sustained overlap. Arrivals
// are drawn normalized and then scaled, so the job mix is identical across
// window choices.
func genOnlineWorkload(name string, prof profile, seed int64) ([]*job.Job, error) {
	jobs := genWorkload(name, prof, seed, 1) // normalized arrivals in [0,1]
	plan, err := planner.New(planner.Input{
		Cluster: model.FromTopology(prof.topo),
		Jobs:    jobs,
		Alpha:   -1,
	})
	if err != nil {
		return nil, err
	}
	window := 0.6 * plan.Makespan
	for _, j := range jobs {
		j.Arrival *= window
	}
	return jobs, nil
}

// LPGap reports how close the two-phase heuristics come to the LP
// relaxation lower bound (§4.2: within 3% for batch makespan, 15% for
// online average completion time).
func LPGap(p Params) (*Report, error) {
	r := newReport("§4.2: heuristic vs LP-relaxation lower bound")
	prof := profileFor(p.Size)
	cm := model.FromTopology(prof.topo)

	t := &metrics.Table{
		Title:   "gap = heuristic/LP − 1 (paper: ~3% batch, ~15% online)",
		Columns: []string{"workload", "scenario", "heuristic", "LP bound", "gap"},
	}
	for _, w := range []string{"W1", "W2", "W3"} {
		for _, online := range []bool{false, true} {
			obj := planner.MinimizeMakespan
			scenario := "batch"
			var jobs []*job.Job
			if online {
				obj = planner.MinimizeAvgCompletion
				scenario = "online"
				var err error
				jobs, err = genOnlineWorkload(w, prof, p.Seed)
				if err != nil {
					return nil, err
				}
			} else {
				jobs = genWorkload(w, prof, p.Seed, 0)
			}
			plan, err := planner.New(planner.Input{Cluster: cm, Jobs: jobs, Alpha: -1, Objective: obj})
			if err != nil {
				return nil, err
			}
			var heuristic, bound float64
			if online {
				heuristic = plan.AvgCompletion
				bound = lp.OnlineLowerBound(cm, jobs, -1)
			} else {
				heuristic = plan.Makespan
				bound = lp.BatchLowerBound(cm, jobs, -1)
			}
			gap := heuristic/bound - 1
			t.AddRow(w, scenario, metrics.F(heuristic, 1), metrics.F(bound, 1), metrics.Pct(100*gap))
			r.set(fmt.Sprintf("%s_%s_gap_pct", w, scenario), 100*gap)
		}
	}
	r.table(t)
	return r, nil
}

// Fig5 measures the offline planner's running time as the number of jobs
// grows, on a large cluster model (paper: 4000 machines / 100 racks, ~55 s
// at 500 jobs on a 2015 desktop). The wall clock times the pruned
// provisioning engine and is advisory; planner_cost_full_s_* is
// planner.CostFull, the deterministic model of the paper's unpruned chain.
func Fig5(p Params) (*Report, error) {
	r := newReport("Fig 5: offline planner running time vs number of jobs")
	var sizes []int
	racks := 100
	switch p.Size {
	case SizeS:
		sizes = []int{10, 25, 50}
		racks = 20
	case SizeL:
		sizes = []int{100, 200, 300, 400, 500}
	default:
		sizes = []int{50, 100, 200}
	}
	cm := model.Cluster{
		Racks:            racks,
		MachinesPerRack:  40,
		SlotsPerMachine:  1,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	}
	t := &metrics.Table{
		Title:   fmt.Sprintf("planner wall time, %d racks x 40 machines", racks),
		Columns: []string{"jobs", "seconds", "modelled unpruned s"},
	}
	for _, n := range sizes {
		jobs := workload.W1(workload.Config{Seed: p.Seed + 3, Jobs: n})
		start := time.Now() //corralvet:ok wallclock Fig 5 measures the planner's real running time, not simulated time
		if _, err := planner.New(planner.Input{Cluster: cm, Jobs: jobs, Alpha: -1}); err != nil {
			return nil, err
		}
		secs := time.Since(start).Seconds() //corralvet:ok wallclock Fig 5 measures the planner's real running time, not simulated time
		stages := 0
		for _, j := range jobs {
			stages += len(j.Stages)
		}
		cost := planner.CostFull(n, racks, stages)
		t.AddRow(fmt.Sprintf("%d", n), metrics.F(secs, 3), metrics.F(cost, 2))
		r.set(fmt.Sprintf("planner_seconds_%djobs", n), secs)
		r.set(fmt.Sprintf("planner_cost_full_s_%djobs", n), cost)
	}
	r.table(t)
	return r, nil
}

// Balance reports the data-balance CoV of Corral's input placement vs the
// HDFS default (§6.2: Corral ≤0.004 vs HDFS ≤0.014 on the paper cluster).
func Balance(p Params) (*Report, error) {
	r := newReport("§6.2: input data balance across racks (CoV)")
	prof := profileFor(p.Size)
	jobs := genWorkload("W1", prof, p.Seed, 0)

	results, err := runAll(prof.topo, jobs, planner.MinimizeMakespan, p.Seed,
		runtime.YarnCS, runtime.Corral)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   "coefficient of variation of input bytes per rack",
		Columns: []string{"placement", "CoV"},
	}
	t.AddRow("hdfs-default (Yarn-CS)", metrics.F(results[runtime.YarnCS].InputRackCoV, 4))
	t.AddRow("corral", metrics.F(results[runtime.Corral].InputRackCoV, 4))
	r.table(t)
	r.set("cov_hdfs", results[runtime.YarnCS].InputRackCoV)
	r.set("cov_corral", results[runtime.Corral].InputRackCoV)
	return r, nil
}
