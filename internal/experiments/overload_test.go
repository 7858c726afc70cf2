package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"corral/internal/invariants"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/snapshot"
	"corral/internal/trace"
	"corral/internal/workload"
)

// TestOverloadGracefulDegradation is the CI gate on the bundled sweep the
// registry runs: at every rate up to 8x the saturating arrival rate under
// a fault storm, the budgeted configuration completes with a bounded
// admission queue and replan rate (armed monitor clean), while the
// unhardened replanning configuration trips the replan-rate bound — the
// anti-vacuity proof that the new invariants can fail.
func TestOverloadGracefulDegradation(t *testing.T) {
	sw, err := runOverload(SizeS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(overloadRates) * len(overloadConfigs); len(sw.runs) != want {
		t.Fatalf("%d cells, want %d", len(sw.runs), want)
	}
	stormy := 0
	for i, rate := range overloadRates {
		k := i * len(overloadConfigs)
		if n := sw.violations[k+2]; n != 0 {
			t.Errorf("rate %g: budgeted run raised %d invariant violations; bounds must hold", rate, n)
		}
		stormy += sw.violations[k+1]
		b := sw.runs[k+2]
		for _, jr := range b.Jobs {
			if jr.Failed && jr.FailReason != "shed: admission queue at capacity" {
				t.Errorf("rate %g: job %d failed (%q); budgeted runs must complete or shed",
					rate, jr.ID, jr.FailReason)
			}
			if !jr.Failed && jr.CompletionTime <= 0 {
				t.Errorf("rate %g: job %d admitted but never completed", rate, jr.ID)
			}
		}
		if b.MaxAdmissionQueue > 4*sw.admission {
			t.Errorf("rate %g: admission queue peaked at %d, above cap %d",
				rate, b.MaxAdmissionQueue, 4*sw.admission)
		}
		// The hardening must actually engage from 4x on: suppression,
		// degradation or admission pressure has to show up, or the sweep
		// proves nothing.
		engaged := b.ReplansSuppressed + b.Deferred + b.Shed +
			b.Degradations.Incremental + b.Degradations.Greedy
		if rate >= 4 && engaged == 0 {
			t.Errorf("rate %g: no overload machinery engaged (vacuous sweep)", rate)
		}
	}
	if stormy == 0 {
		t.Error("unhardened replanning never tripped the replan-rate bound (anti-vacuity: the storm is too weak)")
	}
}

// The full sweep — workload, plan, storm trace, 3 configurations per rate,
// armed monitors — must be a pure function of (size, seed), down to every
// cell's Result and violation count. Two seeds guard against a
// constant-seed fallback passing vacuously.
func TestOverloadDeterminism(t *testing.T) {
	sweeps := map[int64]*overloadSweep{}
	for _, seed := range []int64{1, 42} {
		first, err := runOverload(SizeS, seed)
		if err != nil {
			t.Fatalf("seed %d: first run: %v", seed, err)
		}
		second, err := runOverload(SizeS, seed)
		if err != nil {
			t.Fatalf("seed %d: second run: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("seed %d: overload sweep not reproducible", seed)
		}
		sweeps[seed] = first
	}
	if reflect.DeepEqual(sweeps[int64(1)], sweeps[int64(42)]) {
		t.Error("seeds 1 and 42 produced identical sweeps (determinism test is vacuous)")
	}
}

// Worker scheduling must never leak into the sweep: it is bit-identical
// serial and with 8 workers.
func TestOverloadWorkerInvariance(t *testing.T) {
	defer pool.SetWorkers(0)
	run := func(workers int) *overloadSweep {
		pool.SetWorkers(workers)
		sw, err := runOverload(SizeS, 7)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sw
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("overload sweep differs between 1 and 8 sweep workers")
	}
}

// TestOverloadResumeEquivalence snapshots the sweep's budgeted
// 4x-overload cell mid-storm — with a non-empty admission queue,
// suppression windows open and deferred plan adoptions in flight — tears
// it down, restores from the serialized bytes and requires the resumed run
// to be indistinguishable from the uninterrupted one.
func TestOverloadResumeEquivalence(t *testing.T) {
	const i = 2 // overloadRates[2] is the 4x rate
	rate, cell := overloadRates[i], i*len(overloadConfigs)+2
	sw, err := runOverload(SizeS, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := sw.base
	topo := b.topo
	jobs := workload.Clone(b.jobs)
	for _, j := range jobs {
		j.Arrival /= rate
	}
	failures, _ := GenChaosTrace(topo, 1, overloadStorm, b.clean.Makespan)
	faults := genFlapStorm(topo, sw.window, b.clean.Makespan)
	opts := runtime.Options{
		Cluster: topo, Scheduler: runtime.Corral, Plan: b.plan, Seed: 1,
		Failures: failures, LinkFaults: faults, ReplanOnFailure: true,
		PlannerBudget: overloadBudget, ReplanWindow: sw.window,
		AdmissionLimit: sw.admission,
	}
	base, baseTrace, err := tracedBaseline(opts, jobs, "overload-eq")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, sw.runs[cell]) {
		t.Fatalf("rebuilt options do not reproduce the sweep's budgeted %gx cell", rate)
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
