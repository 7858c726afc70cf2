package experiments

import (
	"corral/internal/metrics"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/workload"
)

// Fig14 crosses job schedulers {Yarn-CS, Corral} with flow schedulers
// {TCP (max-min fair), Varys} on the large simulated topology (paper: 2000
// machines, 50 racks x 40, 1 Gbps NICs; Yarn+Varys ≈ −46% at the median
// vs Yarn+TCP; Corral+TCP beats Yarn+Varys; Corral+Varys is best).
func Fig14(p Params) (*Report, error) {
	r := newReport("Fig 14: job schedulers x flow schedulers")
	var topo topology.Config
	var nJobs int
	var window float64
	scale := 1.0 / 8
	switch p.Size {
	case SizeS:
		topo = topology.Config{Racks: 5, MachinesPerRack: 4, SlotsPerMachine: 2,
			NICBandwidth: 1 * gbps, Oversubscription: 5}
		nJobs, window, scale = 30, 150, 1.0/80
	case SizeL:
		topo = topology.Config{Racks: 50, MachinesPerRack: 10, SlotsPerMachine: 5,
			NICBandwidth: 1 * gbps, Oversubscription: 5}
		nJobs, window, scale = 200, 900, 1.0/8
	default:
		topo = topology.Config{Racks: 10, MachinesPerRack: 8, SlotsPerMachine: 4,
			NICBandwidth: 1 * gbps, Oversubscription: 5}
		nJobs, window, scale = 60, 450, 1.0/16
	}

	jobs := workload.W1(workload.Config{
		Scale: scale, TaskScale: scale * 4, Seed: p.Seed + 8, Jobs: nJobs,
		ArrivalWindow: window,
	})
	plan, err := planJobs(topo, jobs, planner.MinimizeAvgCompletion)
	if err != nil {
		return nil, err
	}

	// A nil net selects the runtime's default max-min allocator (TCP), a
	// fresh instance per run.
	combos := []struct {
		label string
		sched runtime.Kind
		net   netsim.Policy
	}{
		{"yarn-cs+tcp", runtime.YarnCS, nil},
		{"yarn-cs+varys", runtime.YarnCS, netsim.Varys{}},
		{"corral+tcp", runtime.Corral, nil},
		{"corral+varys", runtime.Corral, netsim.Varys{}},
	}
	// Varys is a stateless value, safe to hand to concurrent runs.
	cells := make([]runtime.Options, len(combos))
	for i, c := range combos {
		cells[i] = runtime.Options{Cluster: topo, Scheduler: c.sched, Network: c.net, Plan: plan, Seed: p.Seed}
	}
	results, err := runCells(cells, jobs)
	if err != nil {
		return nil, err
	}
	times := make([][]float64, len(combos))
	for i, res := range results {
		times[i] = completionTimes(res, nil)
	}

	t := &metrics.Table{
		Title:   "completion time percentiles (seconds)",
		Columns: []string{"percentile", "yarn-cs+tcp", "yarn-cs+varys", "corral+tcp", "corral+varys"},
	}
	percentileRows(t, pLabel, false, times...)
	r.table(t)

	base := metrics.Percentile(times[0], 0.5) // yarn-cs+tcp
	for i, c := range combos[1:] {
		r.set(c.label+"_median_reduction_pct",
			metrics.Reduction(base, metrics.Percentile(times[i+1], 0.5)))
	}
	return r, nil
}
