package runtime

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"corral/internal/des"
	"corral/internal/job"
	"corral/internal/planner"
	"corral/internal/snapshot"
	"corral/internal/trace"
)

// --- option validation -------------------------------------------------------

func TestValidateOverloadRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"negative budget", func(o *Options) { o.PlannerBudget = -1 }, "PlannerBudget -1"},
		{"NaN budget", func(o *Options) { o.PlannerBudget = math.NaN() }, "PlannerBudget NaN"},
		{"negative window", func(o *Options) { o.ReplanWindow = -0.5 }, "ReplanWindow -0.5"},
		{"NaN window", func(o *Options) { o.ReplanWindow = math.NaN() }, "ReplanWindow NaN"},
		{"negative admission limit", func(o *Options) { o.AdmissionLimit = -1 }, "negative AdmissionLimit"},
		{"negative queue cap", func(o *Options) { o.AdmissionQueueCap = -4 }, "negative AdmissionQueueCap"},
		{"queue cap without limit", func(o *Options) { o.AdmissionQueueCap = 8 }, "requires AdmissionLimit"},
	}
	for _, tc := range cases {
		opts := Options{Cluster: smallTopo(), BlockSize: 64e6, Seed: 1}
		tc.mut(&opts)
		_, err := newRuntime(opts, []*job.Job{shuffleJob(1)})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// --- replan-storm suppression ------------------------------------------------

// TestReplanSuppressionWindow drives requestReplan at hand-picked instants
// (the Yarn default scheduler makes replanOnFailure itself a no-op, so only
// the window bookkeeping is under test) and checks the debounce, coalesce,
// exponential-cooldown and quiet-decay transitions one by one.
func TestReplanSuppressionWindow(t *testing.T) {
	rt, err := newRuntime(Options{
		Cluster: smallTopo(), BlockSize: 64e6, Seed: 1,
		ReplanWindow: 1,
	}, []*job.Job{shuffleJob(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{1.0, 1.5, 1.7, 2.5, 20} {
		rt.sim.At(des.Time(at), rt.requestReplan)
	}
	rt.sim.Run()

	// t=1.0 opens window [1,2) and replans immediately. t=1.5 saturates it:
	// suppressed, pending parked at 2.0, cooldown escalates to 2. t=1.7 is
	// coalesced into the same pending replan. The pending fire at t=2.0
	// opens the stretched window [2,4), so t=2.5 saturates again: cooldown
	// escalates to 4, pending parked at 4.0 and fired there (window [4,8)).
	// By t=20 the run has been quiet past 8 + 1·4, so the cooldown decays
	// back to baseline and the request replans immediately in [20,21).
	if rt.replansSuppressed != 3 {
		t.Fatalf("replansSuppressed = %d, want 3", rt.replansSuppressed)
	}
	if rt.replanCooldown != 0 {
		t.Fatalf("replanCooldown = %d, want 0 (quiet span must decay escalation)", rt.replanCooldown)
	}
	if rt.replanWindowEnd != 21 {
		t.Fatalf("replanWindowEnd = %g, want 21", rt.replanWindowEnd)
	}
	if rt.replanPending {
		t.Fatal("replanPending still set after the queue drained")
	}
}

// A sustained storm must pin the cooldown at its cap and suppress nearly
// every request: N requests cost O(log N) replans, not N.
func TestReplanSuppressionCooldownCap(t *testing.T) {
	rt, err := newRuntime(Options{
		Cluster: smallTopo(), BlockSize: 64e6, Seed: 1,
		ReplanWindow: 1,
	}, []*job.Job{shuffleJob(1)})
	if err != nil {
		t.Fatal(err)
	}
	requests := 0
	for at := 1.0; at < 30; at += 0.3 {
		rt.sim.At(des.Time(at), rt.requestReplan)
		requests++
	}
	rt.sim.Run()
	if rt.replanCooldown != maxReplanCooldown {
		t.Fatalf("replanCooldown = %d, want cap %d under a sustained storm",
			rt.replanCooldown, maxReplanCooldown)
	}
	// Every non-suppressed request is one replan invocation; with windows
	// stretching 1→2→4→8 the storm passes through only a handful.
	if passed := requests - rt.replansSuppressed; passed > 10 {
		t.Fatalf("%d of %d requests replanned immediately; suppression is not coalescing", passed, requests)
	}
}

// --- planner budget fallback chain -------------------------------------------

// budgetScenario pins both jobs to rack 0 and guts that rack at t=1, so
// exactly one replan request fires with two affected jobs. The handcrafted
// plan makes the replan input deterministic: J=2, R=4, S=2.
func budgetScenario(t *testing.T, budget float64) (*Result, *countingProbe) {
	t.Helper()
	topo := smallTopo()
	probe := newCountingProbe(topo.Machines(), topo.SlotsPerMachine)
	j1, j2 := shuffleJob(1), shuffleJob(2)
	j2.Arrival = 20
	plan := &planner.Plan{
		Objective: planner.MinimizeMakespan,
		Assignments: map[int]*planner.Assignment{
			1: {JobID: 1, Racks: []int{0}, Start: 0, EstLatency: 15},
			2: {JobID: 2, Racks: []int{0}, Start: 20, EstLatency: 15},
		},
	}
	res := mustRun(t, Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 39,
		ReplanOnFailure: true,
		PlannerBudget:   budget,
		Probe:           probe,
		Failures: []Failure{
			{At: 1, Machine: 0}, {At: 1, Machine: 1}, {At: 1, Machine: 2},
		},
	}, []*job.Job{j1, j2})
	for _, jr := range res.Jobs {
		if jr.Failed || jr.CompletionTime <= 0 {
			t.Fatalf("budget %g: job %d failed=%v completion=%g",
				budget, jr.ID, jr.Failed, jr.CompletionTime)
		}
	}
	if n := probe.mon.ViolationCount(); n != 0 {
		t.Fatalf("budget %g: %d invariant violations: %v", budget, n, probe.mon.Violations())
	}
	return res, probe
}

func TestPlannerBudgetFallbackChain(t *testing.T) {
	full := planner.CostFull(2, 4, 2)
	inc := planner.CostIncremental(2, 4, 2)
	if !(inc < full) {
		t.Fatalf("cost model inverted: incremental %g >= full %g", inc, full)
	}

	// Budget above the full-plan cost: no degradation at all.
	res, _ := budgetScenario(t, full*2)
	if res.Degradations != (Degradations{Full: 1}) || res.Replans != 1 {
		t.Fatalf("generous budget: degradations %+v replans %d, want one full plan",
			res.Degradations, res.Replans)
	}

	// Budget between the two planner tiers: degrade to incremental.
	res, _ = budgetScenario(t, (inc+full)/2)
	if res.Degradations != (Degradations{Incremental: 1}) || res.Replans != 1 {
		t.Fatalf("mid budget: degradations %+v replans %d, want one incremental replan",
			res.Degradations, res.Replans)
	}

	// Budget below even the incremental cost: greedy tier, no planner call.
	res, _ = budgetScenario(t, inc/10)
	if res.Degradations != (Degradations{Greedy: 1}) || res.Replans != 0 {
		t.Fatalf("starved budget: degradations %+v replans %d, want greedy only",
			res.Degradations, res.Replans)
	}
}

// A budgeted plan lands at t+cost, not instantly: the same scenario with
// and without a budget must still both complete, and the budgeted run must
// be deterministic.
func TestPlannerBudgetDeterminism(t *testing.T) {
	full := planner.CostFull(2, 4, 2)
	a, _ := budgetScenario(t, full*2)
	b, _ := budgetScenario(t, full*2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed budgeted runs diverged:\na: %+v\nb: %+v", a, b)
	}
	c, _ := budgetScenario(t, planner.CostIncremental(2, 4, 2)/10)
	if reflect.DeepEqual(a, c) {
		t.Fatal("full-plan and greedy runs identical (budget tiers have no effect)")
	}
}

// --- streaming-arrival admission control -------------------------------------

func admissionJobs(arrivals ...float64) []*job.Job {
	jobs := make([]*job.Job, len(arrivals))
	for i, at := range arrivals {
		jobs[i] = shuffleJob(i + 1)
		jobs[i].Arrival = at
	}
	return jobs
}

// AdmissionLimit=1 serializes execution: later arrivals park in the FIFO
// queue and run in arrival order once the slot frees.
func TestAdmissionSerializesArrivals(t *testing.T) {
	topo := smallTopo()
	probe := newCountingProbe(topo.Machines(), topo.SlotsPerMachine)
	opts := Options{Cluster: topo, BlockSize: 64e6, Seed: 3, AdmissionLimit: 1, Probe: probe}
	res := mustRun(t, opts, admissionJobs(0, 0.1, 0.2))
	if res.Deferred != 2 || res.Shed != 0 {
		t.Fatalf("Deferred/Shed = %d/%d, want 2/0", res.Deferred, res.Shed)
	}
	if res.MaxAdmissionQueue != 2 {
		t.Fatalf("MaxAdmissionQueue = %d, want 2", res.MaxAdmissionQueue)
	}
	if probe.kinds[trace.KJobDeferred] != 2 {
		t.Fatalf("JobDefer events = %d, want 2", probe.kinds[trace.KJobDeferred])
	}
	for i, jr := range res.Jobs {
		if jr.Failed || jr.CompletionTime <= 0 {
			t.Fatalf("job %d failed=%v under admission control", jr.ID, jr.Failed)
		}
		if i > 0 && jr.Completion <= res.Jobs[i-1].Completion {
			t.Fatalf("job %d completed at %g before its predecessor (%g); admission is not FIFO",
				jr.ID, jr.Completion, res.Jobs[i-1].Completion)
		}
	}
	if n := probe.mon.ViolationCount(); n != 0 {
		t.Fatalf("%d invariant violations: %v", n, probe.mon.Violations())
	}
	// Serialized execution cannot beat unconstrained execution.
	free := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 3}, admissionJobs(0, 0.1, 0.2))
	if res.Makespan < free.Makespan {
		t.Fatalf("serialized makespan %g beat unconstrained %g", res.Makespan, free.Makespan)
	}
}

// Arrivals past the queue cap are shed: a deterministic terminal outcome
// that never counts against FailedJobs and never wedges the run.
func TestAdmissionShedsAtCapacity(t *testing.T) {
	topo := smallTopo()
	probe := newCountingProbe(topo.Machines(), topo.SlotsPerMachine)
	opts := Options{
		Cluster: topo, BlockSize: 64e6, Seed: 5,
		AdmissionLimit: 1, AdmissionQueueCap: 1, Probe: probe,
	}
	res := mustRun(t, opts, admissionJobs(0, 0.1, 0.2, 0.3))
	if res.Deferred != 1 || res.Shed != 2 {
		t.Fatalf("Deferred/Shed = %d/%d, want 1/2", res.Deferred, res.Shed)
	}
	if res.FailedJobs != 0 {
		t.Fatalf("FailedJobs = %d; shed jobs must not count as attrition failures", res.FailedJobs)
	}
	if probe.kinds[trace.KJobShed] != 2 {
		t.Fatalf("JobShed events = %d, want 2", probe.kinds[trace.KJobShed])
	}
	for _, jr := range res.Jobs[:2] {
		if jr.Failed {
			t.Fatalf("admitted/queued job %d was marked failed", jr.ID)
		}
	}
	for _, jr := range res.Jobs[2:] {
		if !jr.Failed || !strings.Contains(jr.FailReason, "shed") {
			t.Fatalf("job %d failed=%v reason=%q, want shed outcome", jr.ID, jr.Failed, jr.FailReason)
		}
		if jr.CompletionTime != 0 {
			t.Fatalf("shed job %d has completion time %g, want 0 (shed at arrival)", jr.ID, jr.CompletionTime)
		}
	}
	if n := probe.mon.ViolationCount(); n != 0 {
		t.Fatalf("%d invariant violations: %v", n, probe.mon.Violations())
	}
}

// Same seed, same admission pressure: bit-identical results.
func TestAdmissionDeterminism(t *testing.T) {
	run := func() *Result {
		return mustRun(t, Options{
			Cluster: smallTopo(), BlockSize: 64e6, Seed: 9,
			AdmissionLimit: 2, AdmissionQueueCap: 1,
		}, admissionJobs(0, 0.5, 1, 1.5, 2))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed admission runs diverged:\na: %+v\nb: %+v", a, b)
	}
}

// --- snapshot round-trip of overload state -----------------------------------

// Capturing mid-queue must serialize the admission and suppression state
// and restore it exactly: the resumed run equals the uninterrupted one.
func TestOverloadSnapshotRoundTrip(t *testing.T) {
	opts := Options{
		Cluster: smallTopo(), BlockSize: 64e6, Seed: 21,
		AdmissionLimit: 1, ReplanWindow: 2,
	}
	jobs := func() []*job.Job { return admissionJobs(0, 0.1, 0.2) }
	base := mustRun(t, opts, jobs())
	if base.Deferred != 2 {
		t.Fatalf("Deferred = %d, want 2 (scenario must exercise the queue)", base.Deferred)
	}

	// Capture at t=1: job 1 is running, jobs 2 and 3 are parked.
	snap, err := CaptureAt(opts, jobs(), CheckpointTarget{SimTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := snap.State.Runtime
	if st.Admitted != 1 || st.Deferred != 2 || st.MaxAdmissionQueue != 2 {
		t.Fatalf("captured Admitted/Deferred/MaxAdmissionQueue = %d/%d/%d, want 1/2/2",
			st.Admitted, st.Deferred, st.MaxAdmissionQueue)
	}
	if !reflect.DeepEqual(st.AdmissionQueue, []int{2, 3}) {
		t.Fatalf("captured AdmissionQueue = %v, want [2 3]", st.AdmissionQueue)
	}
	if snap.Spec.AdmissionLimit != 1 || snap.Spec.ReplanWindow != 2 {
		t.Fatalf("spec lost overload options: %+v", snap.Spec)
	}

	// Round-trip through the codec, then resume: bit-identical Result.
	raw, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(decoded, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, base) {
		t.Fatalf("resumed mid-queue run differs from uninterrupted run:\nresumed: %+v\nbase:    %+v", res, base)
	}
}
