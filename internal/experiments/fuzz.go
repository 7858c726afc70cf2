package experiments

// corralcheck: property-based invariant fuzzing, plus the attrition sweep.
//
// The fuzzer generates randomized workload + fault traces — transient
// machine failures, uplink degradation windows, per-attempt task crashes,
// application-master kills and DFS replica corruption, all drawn from one
// seeded rng per trace — and replays each trace under Yarn-CS, Corral
// with the constraint-drop fallback, and Corral with failure-triggered
// replanning, with the invariant monitor (internal/invariants) attached;
// the corral-replan run is then resumed from a mid-flight snapshot and
// must finish bit-identical. Any violation — slot leak, attempt on a dead
// or blacklisted machine, infeasible link rates, broken DFS byte
// accounting, a job that neither completes nor fails, a resumed run that
// diverges — is collected and reported. A fixed seed makes the whole
// sweep reproducible, so the fuzz gate in CI is a deterministic
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
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/workload"
)

// DefaultFuzzTraces is the bundled sweep size; the CI gate runs at least
// this many traces.
const DefaultFuzzTraces = 25

// fuzzTrace is one generated workload + fault configuration.
type fuzzTrace struct {
	TaskFailureProb float64
	Failures        []runtime.Failure
	LinkFaults      []runtime.LinkFault
	AMFailures      []runtime.AMFailure
	Corruptions     []runtime.Corruption
}

// genFuzzTrace draws one trace configuration. Everything derives from the
// trace rng, so a trace is a pure function of (topology, seed, horizon,
// job IDs).
func genFuzzTrace(prof profile, seed int64, horizon float64, jobIDs []int) fuzzTrace {
	rng := rand.New(rand.NewSource(seed))
	var tr fuzzTrace
	// Machine failures + uplink windows reuse the chaos generator at a
	// randomized intensity (kept below the chaos gate's severe end: the
	// fuzzer explores interleavings, not outage Armageddon).
	intensity := 0.05 + float64(0.3*rng.Float64())
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

// fuzzSweep aggregates a corralcheck sweep, or one trace of it.
type fuzzSweep struct {
	runs       int      // simulation runs: three schedulers plus one resume per trace
	violations []string // labeled invariant violations across all runs
	completed  int      // jobs that completed, summed over runs
	failed     int      // jobs that failed terminally (legal under attrition)
	// completions holds per-job completion times of every scheduler run,
	// in run order, for the percentile summary.
	completions []float64
}

// runFuzz executes the corralcheck sweep: traces randomized traces, each
// replayed under faultSchedulers with the invariant monitor attached,
// plus a mid-flight snapshot + resume check of its corral-replan run. The
// outcome is a pure function of the arguments.
func runFuzz(size Size, seed int64, traces int) (*fuzzSweep, error) {
	prof := profileFor(size)
	topo := prof.topo
	// Each trace — workload generation, planning, clean run, trace
	// generation, the three monitored runs and the resume — is fully
	// derived from its own seed, so traces fan out over the sweep worker
	// pool and their outputs merge in trace order (see internal/pool for
	// the rules).
	outs := make([]fuzzSweep, traces)
	if err := pool.For(traces, func(i int) error {
		out := &outs[i]
		traceSeed := seed + int64(i)*7919
		// Randomized workload and fault trace: the crash-resume scenario,
		// whose options are the corral-replan configuration.
		replanOpts, jobs, err := resumeScenario(prof, traceSeed)
		if err != nil {
			return fmt.Errorf("fuzz trace %d: %w", i, err)
		}
		var replanRes *runtime.Result
		for _, sc := range faultSchedulers {
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
		if replanRes != nil && replanRes.Events > 2 {
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
	sw := &fuzzSweep{}
	for i := range outs {
		sw.runs += outs[i].runs
		sw.violations = append(sw.violations, outs[i].violations...)
		sw.completed += outs[i].completed
		sw.failed += outs[i].failed
		sw.completions = append(sw.completions, outs[i].completions...)
	}
	return sw, nil
}

// Fuzz is the corralcheck registry entry: the bundled 25-trace sweep.
func Fuzz(p Params) (*Report, error) {
	return FuzzWithTraces(p, DefaultFuzzTraces)
}

// FuzzWithTraces runs corralcheck with a caller-chosen trace count (the
// corralsim -fuzz-traces flag); traces <= 0 selects DefaultFuzzTraces.
func FuzzWithTraces(p Params, traces int) (*Report, error) {
	if traces <= 0 {
		traces = DefaultFuzzTraces
	}
	r := newReport("corralcheck: randomized attrition traces under the invariant monitor")
	sw, err := runFuzz(p.Size, p.Seed, traces)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("%d traces x %d scheduler configs + 1 snapshot/resume each (seed-derived workloads and faults)",
			traces, len(faultSchedulers)),
		Columns: []string{"metric", "value"},
	}
	t.AddRow("sim runs", metrics.F(float64(sw.runs), 0))
	t.AddRow("invariant violations", metrics.F(float64(len(sw.violations)), 0))
	t.AddRow("jobs completed", metrics.F(float64(sw.completed), 0))
	t.AddRow("jobs failed terminally", metrics.F(float64(sw.failed), 0))
	t.AddRow("completion p50 (s)", metrics.F(metrics.P50(sw.completions), 1))
	t.AddRow("completion p95 (s)", metrics.F(metrics.P95(sw.completions), 1))
	t.AddRow("completion p99 (s)", metrics.F(metrics.P99(sw.completions), 1))
	r.table(t)
	r.set("traces", float64(traces))
	r.set("runs", float64(sw.runs))
	r.set("violations", float64(len(sw.violations)))
	r.set("jobs_completed", float64(sw.completed))
	r.set("jobs_failed", float64(sw.failed))
	r.set("completion_p50", metrics.P50(sw.completions))
	r.set("completion_p95", metrics.P95(sw.completions))
	r.set("completion_p99", metrics.P99(sw.completions))
	// Violations are a gate failure; surface them in the rendered report
	// so a failing CI run is diagnosable from the log alone.
	if len(sw.violations) > 0 {
		vt := &metrics.Table{Title: "violations", Columns: []string{"detail"}}
		for _, v := range sw.violations {
			vt.AddRow(v)
		}
		r.table(vt)
	}
	return r, nil
}

// --- attrition sweep --------------------------------------------------------

// attritionProbs is the bundled sweep of per-attempt crash probabilities:
// mild flakiness up to roughly every eighth attempt dying. The top level
// is chosen below the point where the default 4-attempt budget starts
// failing jobs (p^4 job-killing chains become non-negligible across
// hundreds of attempts beyond ~0.15).
var attritionProbs = [...]float64{0.03, 0.08, 0.12}

// runAttrition replays the online W1 workload under Corral at each of
// attritionProbs, with retries, backoff and blacklisting at their
// defaults. clean is the shared baseline's monitored zero-crash run;
// runs[i] is the run at attritionProbs[i]. The invariant monitor is
// attached to every run, and violations surface as errors (the sweep is
// also a check).
func runAttrition(size Size, seed int64) (clean *runtime.Result, runs []*runtime.Result, err error) {
	base, err := newOnlineBaseline(size, seed)
	if err != nil {
		return nil, nil, err
	}
	topo := base.topo
	// Crash-probability levels are independent monitored runs: fan them out
	// and collect in level order (see internal/pool for the rules).
	runs = make([]*runtime.Result, len(attritionProbs))
	if err := pool.For(len(runs), func(i int) error {
		prob := attritionProbs[i]
		mon := invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
		res, err := runtime.Run(runtime.Options{
			Cluster: topo, Scheduler: runtime.Corral, Plan: base.plan, Seed: seed,
			TaskFailureProb: prob, Probe: mon,
		}, workload.Clone(base.jobs))
		if err != nil {
			return fmt.Errorf("attrition p=%g: %w", prob, err)
		}
		if n := mon.ViolationCount(); n != 0 {
			return fmt.Errorf("attrition p=%g: %d invariant violations: %v",
				prob, n, mon.Violations())
		}
		runs[i] = res
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return base.clean, runs, nil
}

// Attrition is the registry entry: the bundled crash-probability sweep
// with completion-time percentiles per level.
func Attrition(p Params) (*Report, error) {
	r := newReport("Attrition: task retries + blacklisting under rising crash rates")
	clean, runs, err := runAttrition(p.Size, p.Seed)
	if err != nil {
		return nil, err
	}
	cleanAvg := clean.AvgCompletionTime()
	t := &metrics.Table{
		Title:   "online W1 under Corral; per-attempt crash probability sweep",
		Columns: []string{"crash prob", "avg (s)", "p50", "p95", "p99", "failed jobs", "slowdown"},
	}
	r.set("clean_avg_completion", cleanAvg)
	for i, prob := range attritionProbs {
		res := runs[i]
		ct := res.CompletionTimes()
		avg := res.AvgCompletionTime()
		// Slowdown is +Inf when the clean baseline completed no jobs
		// (cleanAvg 0); F renders that as "+Inf", keeping the row valid.
		t.AddRow(metrics.F(prob, 2), metrics.F(avg, 1),
			metrics.F(metrics.P50(ct), 1), metrics.F(metrics.P95(ct), 1), metrics.F(metrics.P99(ct), 1),
			metrics.F(float64(res.FailedJobs), 0),
			metrics.F(metrics.Slowdown(cleanAvg, avg), 2))
		key := func(s string) string { return fmt.Sprintf("%s_p%02.0f", s, prob*100) }
		r.set(key("avg"), avg)
		r.set(key("p95"), metrics.P95(ct))
		r.set(key("failed_jobs"), float64(res.FailedJobs))
	}
	r.table(t)
	return r, nil
}
