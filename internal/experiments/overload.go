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
// Everything is a pure function of (size, seed): the workload, plan,
// storm trace and every simulation are seeded, and cells fan out over the
// sweep pool with index-addressed slots (internal/pool determinism rules).

import (
	"fmt"

	"corral/internal/invariants"
	"corral/internal/metrics"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/workload"
)

// overloadRates are the bundled arrival-window compression factors: from
// the nominal online regime to 8x past it.
var overloadRates = [...]float64{1, 2, 4, 8}

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
	down := float64(period / 2)
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

// overloadConfigs are the sweep's three configurations, in cell order:
// Yarn-CS, Corral-replan (no hardening) and budgeted Corral.
var overloadConfigs = [...]struct {
	kind     runtime.Kind
	replan   bool
	hardened bool
}{
	{runtime.YarnCS, false, false},
	{runtime.Corral, true, false},
	{runtime.Corral, true, true},
}

// overloadSweep is the overload sweep's outcome. base is the shared
// online baseline: its clean rate-1 Corral makespan is the horizon the
// storm spans. window and admission are the replan window and admission
// limit the budgeted configuration runs with. Cell
// i*len(overloadConfigs)+k holds overloadRates[i] under
// overloadConfigs[k]. violations counts the invariant monitor's findings
// per cell, with BoundReplanRate armed on both Corral configurations and
// BoundAdmissionQueue on the budgeted one: Corral-replan tripping the
// bound during the storm is the anti-vacuity signal, and the budgeted
// cells must stay at 0.
type overloadSweep struct {
	base       *onlineBaseline
	window     float64
	admission  int
	runs       []*runtime.Result
	violations []int
}

// runOverload runs the overload sweep. The clean rate-1 Corral run fixes
// the horizon; the same storm trace then replays at every rate so rows
// differ only in arrival pressure. The budgeted configuration runs with
// planner budget overloadBudget, replan window horizon/overloadWindowDiv
// and admission limit 2*racks.
func runOverload(size Size, seed int64) (*overloadSweep, error) {
	base, err := newOnlineBaseline(size, seed)
	if err != nil {
		return nil, err
	}
	topo := base.topo
	horizon := base.clean.Makespan
	sw := &overloadSweep{
		base:      base,
		window:    horizon / overloadWindowDiv,
		admission: 2 * topo.Racks,
		runs:      make([]*runtime.Result, len(overloadRates)*len(overloadConfigs)),
	}
	sw.violations = make([]int, len(sw.runs))
	failures, _ := GenChaosTrace(topo, seed, overloadStorm, horizon)
	faults := genFlapStorm(topo, sw.window, horizon)
	if err := pool.For(len(sw.runs), func(ci int) error {
		rate, c := overloadRates[ci/len(overloadConfigs)], overloadConfigs[ci%len(overloadConfigs)]
		opts := runtime.Options{
			Cluster: topo, Scheduler: c.kind, Seed: seed,
			Failures: failures, LinkFaults: faults, ReplanOnFailure: c.replan,
		}
		var mon *invariants.Monitor
		if c.kind == runtime.Corral {
			opts.Plan = base.plan
			mon = invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
			mon.BoundReplanRate(replanBoundMax, sw.window)
			opts.Probe = mon
		}
		if c.hardened {
			opts.PlannerBudget = overloadBudget
			opts.ReplanWindow = sw.window
			opts.AdmissionLimit = sw.admission
			mon.BoundAdmissionQueue(4 * sw.admission)
		}
		// Compress the arrival window: rate r packs the same arrivals into
		// 1/r of the nominal window.
		cell := workload.Clone(base.jobs)
		for _, j := range cell {
			j.Arrival /= rate
		}
		res, err := runtime.Run(opts, cell)
		if err != nil {
			return err
		}
		sw.runs[ci] = res
		if mon != nil {
			sw.violations[ci] = mon.ViolationCount()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return sw, nil
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

// Overload is the registry entry: the bundled rate sweep.
func Overload(p Params) (*Report, error) {
	r := newReport("Overload: graceful degradation under streaming arrivals + fault storm")
	sw, err := runOverload(p.Size, p.Seed)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("online W1, storm horizon %.1fs, planner budget %.2fs, replan window %.1fs, admission limit %d; avg completion (s) of completed jobs",
			sw.base.clean.Makespan, overloadBudget, sw.window, sw.admission),
		Columns: []string{"rate", "yarn-cs", "corral replan", "viol", "budgeted", "viol",
			"replans", "suppressed", "degr f/i/g", "deferred", "shed", "peak q"},
	}
	r.set("clean_avg_completion", avgCompleted(sw.base.clean))
	for i, rate := range overloadRates {
		k := i * len(overloadConfigs)
		y, c, b := sw.runs[k], sw.runs[k+1], sw.runs[k+2]
		cv, bv := sw.violations[k+1], sw.violations[k+2]
		d := b.Degradations
		t.AddRow(metrics.F(rate, 0),
			metrics.F(avgCompleted(y), 1),
			metrics.F(avgCompleted(c), 1),
			metrics.D(cv),
			metrics.F(avgCompleted(b), 1),
			metrics.D(bv),
			metrics.D(b.Replans),
			metrics.D(b.ReplansSuppressed),
			fmt.Sprintf("%d/%d/%d", d.Full, d.Incremental, d.Greedy),
			metrics.D(b.Deferred), metrics.D(b.Shed), metrics.D(b.MaxAdmissionQueue))
		key := func(s string) string { return fmt.Sprintf("%s_r%02.0f", s, rate) }
		r.set(key("avg_yarn"), avgCompleted(y))
		r.set(key("avg_corral_replan"), avgCompleted(c))
		r.set(key("avg_budgeted"), avgCompleted(b))
		r.set(key("violations_unsuppressed"), float64(cv))
		r.set(key("violations_budgeted"), float64(bv))
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
