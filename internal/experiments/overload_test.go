package experiments

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"corral/internal/invariants"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/snapshot"
	"corral/internal/trace"
	"corral/internal/workload"
)

// overloadGateRates: nominal load plus 4x past saturation — the ISSUE's
// acceptance point for graceful degradation.
var overloadGateRates = []float64{1, 4}

// TestOverloadGracefulDegradation is the CI gate: at 4x the saturating
// arrival rate under a fault storm, the budgeted configuration completes
// with a bounded admission queue and replan rate (armed monitor clean),
// while the unhardened replanning configuration trips the replan-rate
// bound — the anti-vacuity proof that the new invariants can fail.
func TestOverloadGracefulDegradation(t *testing.T) {
	rep, err := RunOverload(OverloadParams{Size: SizeS, Seed: 1, Rates: overloadGateRates})
	if err != nil {
		t.Fatal(err)
	}
	stormy := 0
	for _, run := range rep.Runs {
		if run.BudgetedViolations != 0 {
			t.Errorf("rate %g: budgeted run raised %d invariant violations; bounds must hold",
				run.Rate, run.BudgetedViolations)
		}
		stormy += run.CorralReplanViolations
		b := run.Budgeted
		for _, jr := range b.Jobs {
			if jr.Failed && jr.FailReason != "shed: admission queue at capacity" {
				t.Errorf("rate %g: job %d failed (%q); budgeted runs must complete or shed",
					run.Rate, jr.ID, jr.FailReason)
			}
			if !jr.Failed && jr.CompletionTime <= 0 {
				t.Errorf("rate %g: job %d admitted but never completed", run.Rate, jr.ID)
			}
		}
		if b.MaxAdmissionQueue > 4*rep.AdmissionLimit {
			t.Errorf("rate %g: admission queue peaked at %d, above cap %d",
				run.Rate, b.MaxAdmissionQueue, 4*rep.AdmissionLimit)
		}
	}
	if stormy == 0 {
		t.Error("unhardened replanning never tripped the replan-rate bound (anti-vacuity: the storm is too weak)")
	}
	// The hardening must actually engage at 4x: suppression, degradation or
	// admission pressure has to show up, or the sweep proves nothing.
	last := rep.Runs[len(rep.Runs)-1].Budgeted
	engaged := last.ReplansSuppressed + last.Deferred + last.Shed +
		last.Degradations.Incremental + last.Degradations.Greedy
	if engaged == 0 {
		t.Error("no overload machinery engaged at 4x the saturating rate (vacuous sweep)")
	}
}

// The full sweep — workload, plan, storm trace, 3 configurations per rate,
// armed monitors — must be a pure function of (params, seed). Two seeds
// guard against a constant-seed fallback passing vacuously.
func TestOverloadDeterminism(t *testing.T) {
	reports := map[int64]*OverloadReport{}
	for _, seed := range []int64{1, 42} {
		first, err := RunOverload(OverloadParams{Size: SizeS, Seed: seed, Rates: overloadGateRates})
		if err != nil {
			t.Fatalf("seed %d: first run: %v", seed, err)
		}
		second, err := RunOverload(OverloadParams{Size: SizeS, Seed: seed, Rates: overloadGateRates})
		if err != nil {
			t.Fatalf("seed %d: second run: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("seed %d: overload sweep not reproducible", seed)
		}
		reports[seed] = first
	}
	if reflect.DeepEqual(reports[int64(1)], reports[int64(42)]) {
		t.Error("seeds 1 and 42 produced identical sweeps (determinism test is vacuous)")
	}
}

// Worker scheduling must never leak into the report: the sweep is
// bit-identical serial and with 8 workers.
func TestOverloadWorkerInvariance(t *testing.T) {
	defer pool.SetWorkers(0)
	run := func(workers int) *Report {
		pool.SetWorkers(workers)
		rep, err := OverloadSweep(OverloadParams{Size: SizeS, Seed: 7, Rates: overloadGateRates})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("overload report differs between 1 and 8 sweep workers")
	}
}

// TestOverloadResumeEquivalence snapshots the budgeted 4x-overload cell
// mid-storm — with a non-empty admission queue, suppression windows open
// and deferred plan adoptions in flight — tears it down, restores from the
// serialized bytes and requires the resumed run to be indistinguishable
// from the uninterrupted one.
func TestOverloadResumeEquivalence(t *testing.T) {
	prof := profileFor(SizeS)
	topo := prof.topo
	rep, err := RunOverload(OverloadParams{Size: SizeS, Seed: 1, Rates: []float64{4}})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := genOnlineWorkload("W1", prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planJobs(topo, jobs, planner.MinimizeAvgCompletion)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		j.Arrival /= 4
	}
	failures, _ := GenChaosTrace(topo, 1, overloadStorm, rep.Horizon)
	faults := genFlapStorm(topo, rep.ReplanWindow, rep.Horizon)
	opts := runtime.Options{
		Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: 1,
		Failures: failures, LinkFaults: faults, ReplanOnFailure: true,
		PlannerBudget: overloadBudget, ReplanWindow: rep.ReplanWindow,
		AdmissionLimit: rep.AdmissionLimit,
	}
	base, baseTrace, err := tracedBaseline(opts, jobs, "overload-eq")
	if err != nil {
		t.Fatal(err)
	}
	if base.Deferred == 0 && base.ReplansSuppressed == 0 {
		t.Fatal("overload cell engaged no hardening; resume test would prove nothing")
	}
	for _, frac := range []float64{0.3, 0.6} {
		idx := uint64(float64(base.Events) * frac)
		snap, err := runtime.CaptureAt(opts, workload.Clone(jobs), runtime.CheckpointTarget{EventIndex: idx})
		if err != nil {
			t.Fatalf("capture at %d: %v", idx, err)
		}
		raw, err := snapshot.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := snapshot.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		c := trace.NewCollector()
		mon := invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
		res, err := runtime.Resume(decoded, runtime.ResumeOptions{Trace: c.NewRun("overload-eq"), Probe: mon})
		if err != nil {
			t.Fatalf("resume from event %d: %v", idx, err)
		}
		if n := mon.ViolationCount(); n != 0 {
			t.Fatalf("resume from event %d raised %d violations: %v", idx, n, mon.Violations())
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("resume from event %d: Result differs from uninterrupted run", idx)
		}
		var buf bytes.Buffer
		if err := c.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), baseTrace) {
			t.Fatalf("resume from event %d: trace export differs (%d vs %d bytes)", idx, buf.Len(), len(baseTrace))
		}
	}
}

// TestSweepsRejectInvalidValues: a sweep value outside its domain is an
// error before any simulation runs. A zero or negative arrival rate used
// to panic in the simulator, a NaN one to hang, and NaN or infinite chaos
// intensities, NaN budgets and NaN windows to run as if they were valid.
func TestSweepsRejectInvalidValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []OverloadParams{
		{Rates: []float64{0}},
		{Rates: []float64{1, -1}},
		{Rates: []float64{nan}},
		{Rates: []float64{inf}},
		{Budget: nan},
		{Budget: -1},
		{Window: nan},
		{Window: -0.5},
	} {
		p.Size, p.Seed = SizeS, 1
		if _, err := RunOverload(p); err == nil {
			t.Errorf("RunOverload(rates %v, budget %g, window %g): no error", p.Rates, p.Budget, p.Window)
		}
	}
	for _, x := range []float64{-0.5, nan, inf, math.Inf(-1)} {
		if _, err := RunChaos(ChaosParams{Size: SizeS, Seed: 1, Intensities: []float64{0.1, x}}); err == nil {
			t.Errorf("RunChaos(intensity %g): no error", x)
		}
	}
}
