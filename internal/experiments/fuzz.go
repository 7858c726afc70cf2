package experiments

// corralcheck: property-based invariant fuzzing, plus the attrition sweep.
//
// The fuzzer generates randomized workload + fault traces — transient
// machine failures, uplink degradation windows, per-attempt task crashes,
// application-master kills and DFS replica corruption, all drawn from one
// seeded rng per trace — and replays each trace under Yarn-CS, Corral
// with the constraint-drop fallback, and Corral with failure-triggered
// replanning, with the invariant monitor (internal/invariants) attached.
// Any violation — slot leak, attempt on a dead or blacklisted machine,
// infeasible link rates, broken DFS byte accounting, a job that neither
// completes nor fails — is collected and reported. A fixed seed makes the
// whole sweep reproducible, so the fuzz gate in CI is a deterministic
// regression test that happens to have been born random.
//
// The attrition sweep is the measurement companion: the online W1
// workload under increasing task-crash probabilities, demonstrating that
// retries + blacklisting keep every job completing while completion
// times degrade smoothly (TestAttritionSweepGate).

import (
	"fmt"
	"math/rand"

	"corral/internal/invariants"
	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/workload"
)

// FuzzParams configures a corralcheck sweep.
type FuzzParams struct {
	Size   Size
	Seed   int64
	Traces int // randomized traces; <=0 selects DefaultFuzzTraces
	// Snapshots adds a mid-flight snapshot + resume check per trace: the
	// corral-replan run is captured at its midpoint, restored from the
	// serialized bytes, and the resumed Result must deep-equal the
	// uninterrupted one. Divergence is reported as a violation.
	Snapshots bool
}

// DefaultFuzzTraces is the bundled sweep size; the CI gate runs at least
// this many traces.
const DefaultFuzzTraces = 25

// FuzzTrace is one generated workload + fault configuration.
type FuzzTrace struct {
	Seed            int64
	JobCount        int
	TaskFailureProb float64
	Failures        []runtime.Failure
	LinkFaults      []runtime.LinkFault
	AMFailures      []runtime.AMFailure
	Corruptions     []runtime.Corruption
}

// FuzzReport aggregates a corralcheck sweep.
type FuzzReport struct {
	Traces     int
	Runs       int      // simulation runs executed (3 schedulers per trace)
	Violations []string // labeled invariant violations across all runs
	Completed  int      // jobs that completed, summed over runs
	Failed     int      // jobs that failed terminally (legal under attrition)
	// Completions holds per-job completion times of every monitored run,
	// in run order, for the percentile summary.
	Completions []float64
}

// fuzzSchedulers are the three configurations every trace runs under.
var fuzzSchedulers = []struct {
	name   string
	kind   runtime.Kind
	plan   bool
	replan bool
}{
	{"yarn-cs", runtime.YarnCS, false, false},
	{"corral-drop", runtime.Corral, true, false},
	{"corral-replan", runtime.Corral, true, true},
}

// genFuzzTrace draws one trace configuration. Everything derives from the
// trace rng, so a trace is a pure function of (topology, seed, horizon,
// job IDs).
func genFuzzTrace(prof profile, seed int64, horizon float64, jobIDs []int) FuzzTrace {
	rng := rand.New(rand.NewSource(seed))
	tr := FuzzTrace{Seed: seed}
	// Machine failures + uplink windows reuse the chaos generator at a
	// randomized intensity (kept below the chaos gate's severe end: the
	// fuzzer explores interleavings, not outage Armageddon).
	intensity := 0.05 + 0.3*rng.Float64()
	tr.Failures, tr.LinkFaults = GenChaosTrace(prof.topo, rng.Int63(), intensity, horizon)
	// Task crashes: capped so the attempt budget (4) almost never
	// exhausts — job failures remain legal but rare, keeping the
	// completions summary meaningful.
	tr.TaskFailureProb = 0.12 * rng.Float64()
	// AM kills: each job's master dies within the horizon with p=0.15.
	for _, id := range jobIDs {
		if rng.Float64() < 0.15 {
			tr.AMFailures = append(tr.AMFailures, runtime.AMFailure{
				At: rng.Float64() * horizon, JobID: id,
			})
		}
	}
	// Silent corruption: a few replicas across the cluster.
	for k := rng.Intn(4); k > 0; k-- {
		tr.Corruptions = append(tr.Corruptions, runtime.Corruption{
			At: rng.Float64() * horizon, Machine: rng.Intn(prof.topo.Machines()),
		})
	}
	return tr
}

// RunFuzz executes the corralcheck sweep: Traces randomized traces, each
// replayed under the three scheduler configurations with the invariant
// monitor attached. The returned report is a pure function of the params.
func RunFuzz(p FuzzParams) (*FuzzReport, error) {
	if p.Traces <= 0 {
		p.Traces = DefaultFuzzTraces
	}
	prof := profileFor(p.Size)
	topo := prof.topo
	rep := &FuzzReport{Traces: p.Traces}
	// Each trace — workload generation, planning, clean run, trace
	// generation and the three monitored runs — is fully derived from its
	// own seed, so traces fan out over the sweep worker pool and their
	// outputs merge in trace order (see internal/pool for the rules).
	type traceOut struct {
		runs        int
		violations  []string
		completed   int
		failed      int
		completions []float64
	}
	outs := make([]traceOut, p.Traces)
	if err := pool.For(p.Traces, func(i int) error {
		out := &outs[i]
		traceSeed := p.Seed + int64(i)*7919
		// Randomized workload and fault trace: the crash-resume scenario,
		// whose options are the corral-replan configuration.
		replanOpts, jobs, err := resumeScenario(prof, traceSeed)
		if err != nil {
			return fmt.Errorf("fuzz trace %d: %w", i, err)
		}
		var replanRes *runtime.Result
		for _, sc := range fuzzSchedulers {
			mon := invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
			opts := replanOpts
			opts.Scheduler = sc.kind
			opts.ReplanOnFailure = sc.replan
			if !sc.plan {
				opts.Plan = nil
			}
			opts.Probe = mon
			res, err := runtime.Run(opts, workload.Clone(jobs))
			out.runs++
			label := fmt.Sprintf("trace %d (seed %d) %s", i, traceSeed, sc.name)
			if err != nil {
				out.violations = append(out.violations,
					fmt.Sprintf("%s: run error: %v", label, err))
				continue
			}
			for _, v := range mon.Violations() {
				out.violations = append(out.violations, label+": "+v)
			}
			if !mon.Ended() {
				out.violations = append(out.violations, label+": monitor never saw SimEnd")
			}
			if sc.replan {
				replanRes = res
			}
			for k := range res.Jobs {
				jr := &res.Jobs[k]
				if jr.Failed {
					out.failed++
					continue
				}
				out.completed++
				out.completions = append(out.completions, jr.CompletionTime)
			}
		}
		// Mid-flight snapshot + resume check: restore the corral-replan run
		// from its serialized midpoint and require the resumed Result to be
		// bit-identical to the uninterrupted one.
		if p.Snapshots && replanRes != nil && replanRes.Events > 2 {
			label := fmt.Sprintf("trace %d (seed %d) snapshot-resume", i, traceSeed)
			mon := invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
			_, _, mismatch, err := resumeCheck(replanOpts, jobs, replanRes.Events/2, runtime.ResumeOptions{Probe: mon}, replanRes)
			if err != nil {
				out.violations = append(out.violations, fmt.Sprintf("%s: %v", label, err))
				return nil
			}
			out.runs++
			for _, v := range mon.Violations() {
				out.violations = append(out.violations, label+": "+v)
			}
			if mismatch != "" {
				out.violations = append(out.violations, label+": "+mismatch)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i := range outs {
		rep.Runs += outs[i].runs
		rep.Violations = append(rep.Violations, outs[i].violations...)
		rep.Completed += outs[i].completed
		rep.Failed += outs[i].failed
		rep.Completions = append(rep.Completions, outs[i].completions...)
	}
	return rep, nil
}

// Fuzz is the corralcheck registry entry: the bundled 25-trace sweep.
func Fuzz(p Params) (*Report, error) {
	return FuzzWithTraces(p, DefaultFuzzTraces)
}

// FuzzWithTraces runs corralcheck with a caller-chosen trace count (the
// corralsim -fuzz-traces flag). Mid-flight snapshot + resume checks are
// always on for the bundled entry.
func FuzzWithTraces(p Params, traces int) (*Report, error) {
	r := newReport("corralcheck: randomized attrition traces under the invariant monitor")
	rep, err := RunFuzz(FuzzParams{Size: p.Size, Seed: p.Seed, Traces: traces, Snapshots: true})
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("%d traces x %d scheduler configs (seed-derived workloads and faults)",
			rep.Traces, len(fuzzSchedulers)),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("sim runs", metrics.F(float64(rep.Runs), 0))
	t.AddRow("invariant violations", metrics.F(float64(len(rep.Violations)), 0))
	t.AddRow("jobs completed", metrics.F(float64(rep.Completed), 0))
	t.AddRow("jobs failed terminally", metrics.F(float64(rep.Failed), 0))
	t.AddRow("completion p50 (s)", metrics.F(metrics.P50(rep.Completions), 1))
	t.AddRow("completion p95 (s)", metrics.F(metrics.P95(rep.Completions), 1))
	t.AddRow("completion p99 (s)", metrics.F(metrics.P99(rep.Completions), 1))
	r.table(t)
	r.set("traces", float64(rep.Traces))
	r.set("runs", float64(rep.Runs))
	r.set("violations", float64(len(rep.Violations)))
	r.set("jobs_completed", float64(rep.Completed))
	r.set("jobs_failed", float64(rep.Failed))
	r.set("completion_p50", metrics.P50(rep.Completions))
	r.set("completion_p95", metrics.P95(rep.Completions))
	r.set("completion_p99", metrics.P99(rep.Completions))
	// Violations are a gate failure; surface them in the rendered report
	// so a failing CI run is diagnosable from the log alone.
	if len(rep.Violations) > 0 {
		vt := &metrics.Table{Title: "violations", Columns: []string{"detail"}}
		for _, v := range rep.Violations {
			vt.AddRow(v)
		}
		r.table(vt)
	}
	return r, nil
}

// --- attrition sweep --------------------------------------------------------

// DefaultAttritionProbs is the bundled sweep of per-attempt crash
// probabilities: mild flakiness up to roughly every eighth attempt
// dying. The top level is chosen below the point where the default
// 4-attempt budget starts failing jobs (p^4 job-killing chains become
// non-negligible across hundreds of attempts beyond ~0.15).
var DefaultAttritionProbs = []float64{0.03, 0.08, 0.12}

// AttritionRun is one crash-probability level's outcome.
type AttritionRun struct {
	Prob   float64
	Result *runtime.Result
}

// AttritionReport is the sweep outcome.
type AttritionReport struct {
	Clean *runtime.Result
	Runs  []AttritionRun
}

// RunAttrition replays the online W1 workload under Corral with
// increasing per-attempt crash probabilities, with retries, backoff and
// blacklisting at their defaults. The invariant monitor is attached to
// every run; violations surface as errors (the sweep is also a check).
func RunAttrition(p Params, probs []float64) (*AttritionReport, error) {
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
	rep := &AttritionReport{}
	// Crash-probability levels are independent monitored runs: fan them out
	// and collect in level order (see internal/pool for the rules).
	levels := append([]float64{0}, probs...)
	results := make([]*runtime.Result, len(levels))
	if err := pool.For(len(levels), func(i int) error {
		prob := levels[i]
		mon := invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
		res, err := runtime.Run(runtime.Options{
			Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: p.Seed,
			TaskFailureProb: prob, Probe: mon,
		}, workload.Clone(jobs))
		if err != nil {
			return fmt.Errorf("attrition p=%g: %w", prob, err)
		}
		if n := mon.ViolationCount(); n != 0 {
			return fmt.Errorf("attrition p=%g: %d invariant violations: %v",
				prob, n, mon.Violations())
		}
		results[i] = res
		return nil
	}); err != nil {
		return nil, err
	}
	rep.Clean = results[0]
	for i, prob := range probs {
		rep.Runs = append(rep.Runs, AttritionRun{Prob: prob, Result: results[i+1]})
	}
	return rep, nil
}

// Attrition is the registry entry: the bundled crash-probability sweep
// with completion-time percentiles per level.
func Attrition(p Params) (*Report, error) {
	r := newReport("Attrition: task retries + blacklisting under rising crash rates")
	rep, err := RunAttrition(p, DefaultAttritionProbs)
	if err != nil {
		return nil, err
	}
	cleanAvg := rep.Clean.AvgCompletionTime()
	t := &metrics.Table{
		Title:   "online W1 under Corral; per-attempt crash probability sweep",
		Columns: []string{"crash prob", "avg (s)", "p50", "p95", "p99", "failed jobs", "slowdown"},
	}
	r.set("clean_avg_completion", cleanAvg)
	for _, run := range rep.Runs {
		ct := run.Result.CompletionTimes()
		avg := run.Result.AvgCompletionTime()
		// Slowdown is +Inf when the clean baseline completed no jobs
		// (cleanAvg 0); F renders that as "+Inf", keeping the row valid.
		t.AddRow(metrics.F(run.Prob, 2), metrics.F(avg, 1),
			metrics.F(metrics.P50(ct), 1), metrics.F(metrics.P95(ct), 1), metrics.F(metrics.P99(ct), 1),
			metrics.F(float64(run.Result.FailedJobs), 0),
			metrics.F(metrics.Slowdown(cleanAvg, avg), 2))
		key := func(s string) string { return fmt.Sprintf("%s_p%02.0f", s, run.Prob*100) }
		r.set(key("avg"), avg)
		r.set(key("p95"), metrics.P95(ct))
		r.set(key("failed_jobs"), float64(run.Result.FailedJobs))
	}
	r.table(t)
	return r, nil
}
