package experiments

// Chaos: seeded full-stack fault injection. A fault trace (transient
// machine failures plus rack-uplink degradation windows) is generated from
// (topology, seed, intensity, horizon) and replayed against the same W1
// batch under three configurations — the Yarn-CS baseline, Corral with the
// paper's constraint-drop fallback only, and Corral with failure-triggered
// replanning — to measure how gracefully each degrades as fault intensity
// grows. Everything is a pure function of (size, seed): traces come from
// one seeded rng walked in index order, and the runs themselves are
// deterministic, so a rerun reproduces every Result bit for bit
// (TestChaosDeterminism).

import (
	"fmt"
	"math/rand"

	"corral/internal/invariants"
	"corral/internal/job"
	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/workload"
)

// chaosIntensities is the bundled sweep of fault intensities: mild to
// severe.
var chaosIntensities = [...]float64{0.1, 0.3, 0.5}

// chaosFactors are the uplink degradation levels a window can apply: full
// outage, or capacity cut to a quarter or half. Every window is closed by
// a factor-1 restore, so no fault is permanent and no job can wedge.
var chaosFactors = [...]float64{0, 0.25, 0.5}

// GenChaosTrace builds a fault trace for the given topology. intensity is
// the expected number of failures per machine over the horizon (so 0.3
// means roughly 30% of machines fail once); rack uplinks each suffer one
// degradation window with probability min(1, intensity). Machine downtimes
// and degradation windows are bounded fractions of the horizon, and every
// uplink fault is paired with a restore — traces never permanently remove
// capacity. The trace is a pure function of the arguments.
func GenChaosTrace(topo topology.Config, seed int64, intensity, horizon float64) ([]runtime.Failure, []runtime.LinkFault) {
	if intensity <= 0 || horizon <= 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(seed))
	mttf := horizon / intensity
	mttr := 0.15 * horizon

	var failures []runtime.Failure
	for m := 0; m < topo.Machines(); m++ {
		t := rng.ExpFloat64() * mttf
		for t < horizon {
			down := float64(mttr * (0.5 + float64(rng.Float64())))
			failures = append(failures, runtime.Failure{At: t, Machine: m, Downtime: down})
			t += down + float64(rng.ExpFloat64()*mttf)
		}
	}

	var faults []runtime.LinkFault
	for r := 0; r < topo.Racks; r++ {
		if rng.Float64() >= intensity {
			continue
		}
		start := float64(rng.Float64() * 0.8 * horizon)
		dur := float64(0.1 * horizon * (0.5 + float64(rng.Float64())))
		factor := chaosFactors[rng.Intn(len(chaosFactors))]
		faults = append(faults,
			runtime.LinkFault{At: start, Rack: r, Factor: factor},
			runtime.LinkFault{At: start + dur, Rack: r, Factor: 1})
	}
	return failures, faults
}

// faultSchedulers are the three configurations the chaos and fuzz sweeps
// run every fault trace under, in this order: the Yarn-CS baseline, Corral
// with the paper's constraint-drop fallback only, and Corral with
// failure-triggered replanning.
var faultSchedulers = [...]struct {
	name   string
	kind   runtime.Kind
	plan   bool
	replan bool
}{
	{"yarn-cs", runtime.YarnCS, false, false},
	{"corral-drop", runtime.Corral, true, false},
	{"corral-replan", runtime.Corral, true, true},
}

// onlineBaseline is the fault-free starting point the chaos, overload and
// attrition sweeps share: the online W1 workload, its average-completion
// plan and the clean Corral run. The clean makespan sets the chaos and
// overload fault horizons, and the clean run is attrition's zero-crash
// level, so the invariant monitor watches it.
type onlineBaseline struct {
	topo  topology.Config
	jobs  []*job.Job
	plan  *planner.Plan
	clean *runtime.Result
}

func newOnlineBaseline(size Size, seed int64) (*onlineBaseline, error) {
	prof := profileFor(size)
	jobs, err := genOnlineWorkload("W1", prof, seed)
	if err != nil {
		return nil, err
	}
	plan, err := planJobs(prof.topo, jobs, planner.MinimizeAvgCompletion)
	if err != nil {
		return nil, err
	}
	mon := invariants.NewMonitor(prof.topo.Machines(), prof.topo.SlotsPerMachine)
	clean, err := runtime.Run(runtime.Options{
		Cluster: prof.topo, Scheduler: runtime.Corral, Plan: plan, Seed: seed, Probe: mon,
	}, workload.Clone(jobs))
	if err != nil {
		return nil, err
	}
	if n := mon.ViolationCount(); n != 0 {
		return nil, fmt.Errorf("clean online W1 run: %d invariant violations: %v", n, mon.Violations())
	}
	return &onlineBaseline{topo: prof.topo, jobs: jobs, plan: plan, clean: clean}, nil
}

// chaosSweep is the chaos sweep's outcome: the clean run, whose makespan
// is the fault horizon, and one Result per (intensity, scheduler) cell,
// at index i*len(faultSchedulers)+k for chaosIntensities[i] under
// faultSchedulers[k].
type chaosSweep struct {
	clean *runtime.Result
	runs  []*runtime.Result
}

// runChaos runs the online W1 workload under each bundled fault intensity
// and each of faultSchedulers. The online regime (arrivals spread over the
// run, planned for average completion) is where the paper's completion-
// time wins live (Fig 8/9) — and the realistic setting for chaos: faults
// hit an operating cluster, not a one-shot batch. The fault horizon is
// the clean Corral makespan, so traces stress the whole nominal run.
func runChaos(size Size, seed int64) (*chaosSweep, error) {
	base, err := newOnlineBaseline(size, seed)
	if err != nil {
		return nil, err
	}
	horizon := base.clean.Makespan
	// Every (intensity, scheduler) cell is an independent simulation:
	// precompute the traces, then fan the cells out over the sweep worker
	// pool (see internal/pool for the determinism rules).
	var failures [len(chaosIntensities)][]runtime.Failure
	var faults [len(chaosIntensities)][]runtime.LinkFault
	for i, intensity := range chaosIntensities {
		failures[i], faults[i] = GenChaosTrace(base.topo, seed, intensity, horizon)
	}
	out := &chaosSweep{
		clean: base.clean,
		runs:  make([]*runtime.Result, len(chaosIntensities)*len(faultSchedulers)),
	}
	if err := pool.For(len(out.runs), func(ci int) error {
		i, sc := ci/len(faultSchedulers), faultSchedulers[ci%len(faultSchedulers)]
		opts := runtime.Options{
			Cluster: base.topo, Scheduler: sc.kind, Seed: seed,
			Failures: failures[i], LinkFaults: faults[i], ReplanOnFailure: sc.replan,
		}
		if sc.plan {
			opts.Plan = base.plan
		}
		res, err := runtime.Run(opts, workload.Clone(base.jobs))
		if err != nil {
			return err
		}
		out.runs[ci] = res
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Chaos is the registry entry: the bundled sweep rendered as a table of
// average job completion times and slowdowns relative to the clean run.
func Chaos(p Params) (*Report, error) {
	r := newReport("Chaos: graceful degradation under machine and uplink faults")
	sw, err := runChaos(p.Size, p.Seed)
	if err != nil {
		return nil, err
	}
	cleanAvg := sw.clean.AvgCompletionTime()
	t := &metrics.Table{
		Title: fmt.Sprintf("online W1, fault horizon %.1fs; avg completion (s) and slowdown vs clean Corral",
			sw.clean.Makespan),
		Columns: []string{"intensity", "yarn-cs", "corral (drop)", "corral (replan)",
			"replan p50", "replan p95", "replan p99", "replan slowdown"},
	}
	r.set("clean_avg_completion", cleanAvg)
	r.set("clean_p95_completion", metrics.P95(sw.clean.CompletionTimes()))
	for i, intensity := range chaosIntensities {
		cell := sw.runs[i*len(faultSchedulers):] // yarn-cs, corral-drop, corral-replan
		y, d, pl := cell[0].AvgCompletionTime(), cell[1].AvgCompletionTime(), cell[2].AvgCompletionTime()
		ct := cell[2].CompletionTimes()
		// Slowdown is +Inf when the clean baseline completed no jobs
		// (cleanAvg 0); F renders that as "+Inf", keeping the row valid.
		t.AddRow(metrics.F(intensity, 2), metrics.F(y, 1), metrics.F(d, 1), metrics.F(pl, 1),
			metrics.F(metrics.P50(ct), 1), metrics.F(metrics.P95(ct), 1), metrics.F(metrics.P99(ct), 1),
			metrics.F(metrics.Slowdown(cleanAvg, pl), 2))
		key := func(s string) string { return fmt.Sprintf("%s_i%02.0f", s, intensity*100) }
		r.set(key("avg_yarn"), y)
		r.set(key("avg_corral_drop"), d)
		r.set(key("avg_corral_replan"), pl)
		r.set(key("p95_corral_replan"), metrics.P95(ct))
		r.set(key("replans"), float64(cell[2].Replans))
		r.set(key("repair_bytes"), cell[2].RepairBytes)
	}
	r.table(t)
	return r, nil
}
