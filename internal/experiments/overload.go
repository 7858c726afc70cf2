package experiments

// Overload: graceful degradation under streaming-arrival overload plus a
// fault storm. The online W1 workload's arrival window is compressed by a
// rate factor (rate 1 is the paper's sustained-overlap regime, rate 4 is
// 4x past it) while a seeded chaos trace batters the cluster, and each
// rate runs under three configurations:
//
//   - Yarn-CS: the baseline, no planning at all.
//   - Corral-replan: failure-triggered replanning with none of the PR 8
//     hardening — every fault replans immediately, every arrival is
//     admitted. An armed invariant monitor demonstrates the failure mode:
//     the replan-rate bound trips during the storm (anti-vacuity for the
//     new invariants).
//   - Budgeted Corral: the same replanning behind a planner deadline
//     budget, replan-storm suppression and admission control. The same
//     monitor bounds must stay clean, and the run must still complete.
//
// Everything is a pure function of OverloadParams: the workload, plan,
// storm trace and every simulation are seeded, and cells fan out over the
// sweep pool with index-addressed slots (internal/pool determinism rules).

import (
	"fmt"
	"math"

	"corral/internal/invariants"
	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/workload"
)

// DefaultOverloadRates sweeps from the nominal online regime to 8x past it.
var DefaultOverloadRates = []float64{1, 2, 4, 8}

// Overload-hardening defaults for the sweep. The replan window and storm
// are sized relative to the clean-run horizon so the sweep stresses every
// Size the same way; the monitor allows replanBoundMax replans per window
// (immediate replans plus the coalesced fire of an adjacent window can
// legitimately land in one sliding window).
const (
	overloadBudget    = 0.1  // planner deadline, simulated seconds
	overloadWindowDiv = 20.0 // replan window = horizon / this
	overloadStorm     = 0.3  // chaos-trace intensity of the machine-failure storm
	overloadFlapDiv   = 6.0  // uplink flap period = replan window / this
	replanBoundMax    = 3
)

// genFlapStorm builds the replan-storm half of the fault trace: a
// switch-flap schedule where rack uplinks drop out (factor 0) and restore
// on a staggered cycle across the middle of the horizon. Every isolation
// of a rack hosting a constrained job forces a replan request, so with
// flaps arriving several times per replan window the unhardened
// configuration replans at the flap rate — exactly the storm the
// suppression window exists to coalesce. The schedule is a pure function
// of the arguments: no rng.
func genFlapStorm(topo topology.Config, window, horizon float64) []runtime.LinkFault {
	period := window / overloadFlapDiv
	down := period / 2
	var out []runtime.LinkFault
	i := 0
	for at := 0.05 * horizon; at < 0.55*horizon; at += period {
		r := i % topo.Racks
		out = append(out,
			runtime.LinkFault{At: at, Rack: r, Factor: 0},
			runtime.LinkFault{At: at + down, Rack: r, Factor: 1})
		i++
	}
	return out
}

// OverloadParams configures an overload sweep. The budgeted configuration
// always runs with the bundled hardening: planner budget overloadBudget,
// replan window horizon/overloadWindowDiv and admission limit 2*racks.
type OverloadParams struct {
	Size  Size
	Seed  int64
	Rates []float64 // arrival-window compression factors; nil = defaults
}

// OverloadRun is one arrival rate's outcome under the three configurations.
type OverloadRun struct {
	Rate         float64
	Yarn         *runtime.Result
	CorralReplan *runtime.Result // replanning, no hardening
	Budgeted     *runtime.Result // budget + suppression + admission control
	// Invariant-monitor violation counts with BoundReplanRate armed on both
	// Corral configurations and BoundAdmissionQueue armed on the budgeted
	// one. CorralReplanViolations > 0 during the storm is the anti-vacuity
	// signal; BudgetedViolations must be 0.
	CorralReplanViolations int
	BudgetedViolations     int
}

// OverloadReport is the full sweep outcome. PlannerBudget, ReplanWindow
// and AdmissionLimit record the values the budgeted configuration ran
// with.
type OverloadReport struct {
	Horizon        float64 // clean Corral makespan at rate 1; storm spans it
	PlannerBudget  float64
	ReplanWindow   float64
	AdmissionLimit int
	Clean          *runtime.Result
	Runs           []OverloadRun
}

// RunOverload runs the overload sweep. The clean rate-1 Corral run fixes
// the horizon; the same storm trace then replays at every rate so rows
// differ only in arrival pressure. Every rate must be finite and positive.
func RunOverload(p OverloadParams) (*OverloadReport, error) {
	rates := p.Rates
	if len(rates) == 0 {
		rates = DefaultOverloadRates
	}
	for _, r := range rates {
		if !(r > 0) || math.IsInf(r, 1) {
			return nil, fmt.Errorf("overload: arrival rate %g must be finite and positive", r)
		}
	}
	base, err := newOnlineBaseline(p.Size, p.Seed)
	if err != nil {
		return nil, err
	}
	topo, jobs, plan := base.topo, base.jobs, base.plan
	rep := &OverloadReport{
		Horizon:        base.clean.Makespan,
		PlannerBudget:  overloadBudget,
		ReplanWindow:   base.clean.Makespan / overloadWindowDiv,
		AdmissionLimit: 2 * topo.Racks,
		Clean:          base.clean,
	}
	failures, _ := GenChaosTrace(topo, p.Seed, overloadStorm, rep.Horizon)
	faults := genFlapStorm(topo, rep.ReplanWindow, rep.Horizon)

	type cfg struct {
		kind     runtime.Kind
		plan     *planner.Plan
		replan   bool
		hardened bool
	}
	cfgs := []cfg{
		{runtime.YarnCS, nil, false, false},
		{runtime.Corral, plan, true, false},
		{runtime.Corral, plan, true, true},
	}
	results := make([]*runtime.Result, len(rates)*len(cfgs))
	violations := make([]int, len(results))
	if err := pool.For(len(results), func(ci int) error {
		rate, c := rates[ci/len(cfgs)], cfgs[ci%len(cfgs)]
		opts := runtime.Options{
			Cluster: topo, Scheduler: c.kind, Plan: c.plan, Seed: p.Seed,
			Failures: failures, LinkFaults: faults, ReplanOnFailure: c.replan,
		}
		var mon *invariants.Monitor
		if c.kind == runtime.Corral {
			mon = invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
			mon.BoundReplanRate(replanBoundMax, rep.ReplanWindow)
			opts.Probe = mon
		}
		if c.hardened {
			opts.PlannerBudget = rep.PlannerBudget
			opts.ReplanWindow = rep.ReplanWindow
			opts.AdmissionLimit = rep.AdmissionLimit
			mon.BoundAdmissionQueue(4 * rep.AdmissionLimit)
		}
		// Compress the arrival window: rate r packs the same arrivals into
		// 1/r of the nominal window.
		cell := workload.Clone(jobs)
		for _, j := range cell {
			j.Arrival /= rate
		}
		res, err := runtime.Run(opts, cell)
		if err != nil {
			return err
		}
		results[ci] = res
		if mon != nil {
			violations[ci] = mon.ViolationCount()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, rate := range rates {
		rep.Runs = append(rep.Runs, OverloadRun{
			Rate:                   rate,
			Yarn:                   results[i*len(cfgs)],
			CorralReplan:           results[i*len(cfgs)+1],
			Budgeted:               results[i*len(cfgs)+2],
			CorralReplanViolations: violations[i*len(cfgs)+1],
			BudgetedViolations:     violations[i*len(cfgs)+2],
		})
	}
	return rep, nil
}

// avgCompleted averages completion time over non-failed jobs: shed jobs
// record a zero completion time and must not drag the average down.
func avgCompleted(res *runtime.Result) float64 {
	s, n := 0.0, 0
	for i := range res.Jobs {
		if !res.Jobs[i].Failed {
			s += res.Jobs[i].CompletionTime
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Overload is the registry entry: the default rate sweep.
func Overload(p Params) (*Report, error) {
	r := newReport("Overload: graceful degradation under streaming arrivals + fault storm")
	rep, err := RunOverload(OverloadParams{Size: p.Size, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("online W1, storm horizon %.1fs, planner budget %.2fs, replan window %.1fs, admission limit %d; avg completion (s) of completed jobs",
			rep.Horizon, rep.PlannerBudget, rep.ReplanWindow, rep.AdmissionLimit),
		Columns: []string{"rate", "yarn-cs", "corral replan", "viol", "budgeted", "viol",
			"replans", "suppressed", "degr f/i/g", "deferred", "shed", "peak q"},
	}
	r.set("clean_avg_completion", avgCompleted(rep.Clean))
	for _, run := range rep.Runs {
		b := run.Budgeted
		d := b.Degradations
		t.AddRow(metrics.F(run.Rate, 0),
			metrics.F(avgCompleted(run.Yarn), 1),
			metrics.F(avgCompleted(run.CorralReplan), 1),
			metrics.D(run.CorralReplanViolations),
			metrics.F(avgCompleted(b), 1),
			metrics.D(run.BudgetedViolations),
			metrics.D(b.Replans),
			metrics.D(b.ReplansSuppressed),
			fmt.Sprintf("%d/%d/%d", d.Full, d.Incremental, d.Greedy),
			metrics.D(b.Deferred), metrics.D(b.Shed), metrics.D(b.MaxAdmissionQueue))
		key := func(s string) string { return fmt.Sprintf("%s_r%02.0f", s, run.Rate) }
		r.set(key("avg_yarn"), avgCompleted(run.Yarn))
		r.set(key("avg_corral_replan"), avgCompleted(run.CorralReplan))
		r.set(key("avg_budgeted"), avgCompleted(b))
		r.set(key("violations_unsuppressed"), float64(run.CorralReplanViolations))
		r.set(key("violations_budgeted"), float64(run.BudgetedViolations))
		r.set(key("replans_budgeted"), float64(b.Replans))
		r.set(key("suppressed"), float64(b.ReplansSuppressed))
		r.set(key("degraded"), float64(d.Incremental+d.Greedy))
		r.set(key("deferred"), float64(b.Deferred))
		r.set(key("shed"), float64(b.Shed))
		r.set(key("peak_queue"), float64(b.MaxAdmissionQueue))
	}
	r.table(t)
	return r, nil
}
