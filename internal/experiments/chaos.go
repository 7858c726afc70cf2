package experiments

// Chaos: seeded full-stack fault injection. A fault trace (transient
// machine failures plus rack-uplink degradation windows) is generated from
// (topology, seed, intensity, horizon) and replayed against the same W1
// batch under three configurations — the Yarn-CS baseline, Corral with the
// paper's constraint-drop fallback only, and Corral with failure-triggered
// replanning — to measure how gracefully each degrades as fault intensity
// grows. Everything is a pure function of the parameters: traces come from
// one seeded rng walked in index order, and the runs themselves are
// deterministic, so identical ChaosParams reproduce identical ChaosReports
// bit for bit (TestChaosDeterminism).

import (
	"fmt"
	"math"
	"math/rand"

	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/workload"
)

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
			down := mttr * (0.5 + rng.Float64())
			failures = append(failures, runtime.Failure{At: t, Machine: m, Downtime: down})
			t += down + rng.ExpFloat64()*mttf
		}
	}

	var faults []runtime.LinkFault
	for r := 0; r < topo.Racks; r++ {
		if rng.Float64() >= intensity {
			continue
		}
		start := rng.Float64() * 0.8 * horizon
		dur := 0.1 * horizon * (0.5 + rng.Float64())
		factor := chaosFactors[rng.Intn(len(chaosFactors))]
		faults = append(faults,
			runtime.LinkFault{At: start, Rack: r, Factor: factor},
			runtime.LinkFault{At: start + dur, Rack: r, Factor: 1})
	}
	return failures, faults
}

// ChaosParams configures a chaos sweep.
type ChaosParams struct {
	Size        Size
	Seed        int64
	Intensities []float64
}

// ChaosRun is one intensity level's outcome under the three schedulers.
type ChaosRun struct {
	Intensity    float64
	Yarn         *runtime.Result
	CorralDrop   *runtime.Result // Corral, constraint-drop fallback only
	CorralReplan *runtime.Result // Corral with failure-triggered replanning
}

// ChaosReport is the full sweep outcome.
type ChaosReport struct {
	Horizon float64 // clean Corral makespan; fault traces span it
	Clean   *runtime.Result
	Runs    []ChaosRun
}

// RunChaos runs the online W1 workload under each fault intensity and
// scheduler configuration. The online regime (arrivals spread over the
// run, planned for average completion) is where the paper's completion-
// time wins live (Fig 8/9) — and the realistic setting for chaos: faults
// hit an operating cluster, not a one-shot batch. The fault horizon is
// the clean Corral makespan, so traces stress the whole nominal run.
// Every intensity must be finite and non-negative.
func RunChaos(p ChaosParams) (*ChaosReport, error) {
	for _, x := range p.Intensities {
		if !(x >= 0) || math.IsInf(x, 1) {
			return nil, fmt.Errorf("chaos: fault intensity %g must be finite and non-negative", x)
		}
	}
	prof := profileFor(p.Size)
	topo := prof.topo
	jobs, err := genOnlineWorkload("W1", prof, p.Seed)
	if err != nil {
		return nil, err
	}
	plan, err := planJobs(topo, jobs, planner.MinimizeAvgCompletion)
	if err != nil {
		return nil, err
	}
	clean, err := runtime.Run(runtime.Options{
		Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: p.Seed,
	}, workload.Clone(jobs))
	if err != nil {
		return nil, err
	}
	rep := &ChaosReport{Horizon: clean.Makespan, Clean: clean}
	// Every (intensity, scheduler config) cell is an independent simulation:
	// precompute the traces, fan the cells out over the sweep worker pool,
	// and assemble Runs in intensity order afterwards (see internal/pool for
	// the determinism rules).
	type cfg struct {
		kind   runtime.Kind
		plan   *planner.Plan
		replan bool
	}
	cfgs := []cfg{
		{runtime.YarnCS, nil, false},
		{runtime.Corral, plan, false},
		{runtime.Corral, plan, true},
	}
	type trace struct {
		failures []runtime.Failure
		faults   []runtime.LinkFault
	}
	traces := make([]trace, len(p.Intensities))
	for i, intensity := range p.Intensities {
		traces[i].failures, traces[i].faults = GenChaosTrace(topo, p.Seed, intensity, rep.Horizon)
	}
	results := make([]*runtime.Result, len(p.Intensities)*len(cfgs))
	if err := pool.For(len(results), func(ci int) error {
		tr, c := traces[ci/len(cfgs)], cfgs[ci%len(cfgs)]
		res, err := runtime.Run(runtime.Options{
			Cluster: topo, Scheduler: c.kind, Plan: c.plan, Seed: p.Seed,
			Failures: tr.failures, LinkFaults: tr.faults, ReplanOnFailure: c.replan,
		}, workload.Clone(jobs))
		if err != nil {
			return err
		}
		results[ci] = res
		return nil
	}); err != nil {
		return nil, err
	}
	for i, intensity := range p.Intensities {
		rep.Runs = append(rep.Runs, ChaosRun{
			Intensity:    intensity,
			Yarn:         results[i*len(cfgs)],
			CorralDrop:   results[i*len(cfgs)+1],
			CorralReplan: results[i*len(cfgs)+2],
		})
	}
	return rep, nil
}

// DefaultChaosIntensities is the bundled sweep: mild to severe.
var DefaultChaosIntensities = []float64{0.1, 0.3, 0.5}

// Chaos is the registry entry: the default sweep rendered as a table of
// average job completion times and slowdowns relative to the clean run.
func Chaos(p Params) (*Report, error) {
	return ChaosWithIntensities(p, DefaultChaosIntensities)
}

// ChaosWithIntensities runs the chaos sweep at caller-chosen intensities
// (the corralsim -chaos-intensities flag).
func ChaosWithIntensities(p Params, intensities []float64) (*Report, error) {
	r := newReport("Chaos: graceful degradation under machine and uplink faults")
	rep, err := RunChaos(ChaosParams{Size: p.Size, Seed: p.Seed, Intensities: intensities})
	if err != nil {
		return nil, err
	}
	cleanAvg := rep.Clean.AvgCompletionTime()
	t := &metrics.Table{
		Title: fmt.Sprintf("online W1, fault horizon %.1fs; avg completion (s) and slowdown vs clean Corral",
			rep.Horizon),
		Columns: []string{"intensity", "yarn-cs", "corral (drop)", "corral (replan)",
			"replan p50", "replan p95", "replan p99", "replan slowdown"},
	}
	r.set("clean_avg_completion", cleanAvg)
	r.set("clean_p95_completion", metrics.P95(rep.Clean.CompletionTimes()))
	for _, run := range rep.Runs {
		y, d, pl := run.Yarn.AvgCompletionTime(), run.CorralDrop.AvgCompletionTime(), run.CorralReplan.AvgCompletionTime()
		ct := run.CorralReplan.CompletionTimes()
		// Slowdown is +Inf when the clean baseline completed no jobs
		// (cleanAvg 0); F renders that as "+Inf", keeping the row valid.
		t.AddRow(metrics.F(run.Intensity, 2), metrics.F(y, 1), metrics.F(d, 1), metrics.F(pl, 1),
			metrics.F(metrics.P50(ct), 1), metrics.F(metrics.P95(ct), 1), metrics.F(metrics.P99(ct), 1),
			metrics.F(metrics.Slowdown(cleanAvg, pl), 2))
		key := func(s string) string { return fmt.Sprintf("%s_i%02.0f", s, run.Intensity*100) }
		r.set(key("avg_yarn"), y)
		r.set(key("avg_corral_drop"), d)
		r.set(key("avg_corral_replan"), pl)
		r.set(key("p95_corral_replan"), metrics.P95(ct))
		r.set(key("replans"), float64(run.CorralReplan.Replans))
		r.set(key("repair_bytes"), run.CorralReplan.RepairBytes)
	}
	r.table(t)
	return r, nil
}
