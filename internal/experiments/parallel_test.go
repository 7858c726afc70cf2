package experiments

import (
	"reflect"
	"testing"

	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/workload"
)

// TestSweepWorkerCountInvariance is the core parallel-sweep determinism
// gate: the same chaos sweep must produce DeepEqual Results whether the
// cells run serially or across a wide worker pool — worker scheduling must
// never leak into Results.
func TestSweepWorkerCountInvariance(t *testing.T) {
	defer pool.SetWorkers(0)
	pool.SetWorkers(1)
	serial, err := runChaos(SizeS, 7)
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	pool.SetWorkers(8)
	parallel, err := runChaos(SizeS, 7)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("chaos sweep results differ between 1 and 8 workers")
	}
}

// TestParallelSweepTwoSeedReplay is the anti-vacuity half of the chaos
// replay (chaosReplay, chaos_test.go): the two seeds' sweeps at 8 workers
// must differ, or a constant-seed fallback would let TestChaosDeterminism
// pass without the seed reaching the traces.
func TestParallelSweepTwoSeedReplay(t *testing.T) {
	sweeps, err := chaosReplay()
	if err != nil {
		t.Fatal(err)
	}
	a, b := replaySeeds[0], replaySeeds[1]
	if reflect.DeepEqual(sweeps[a][0], sweeps[b][0]) {
		t.Errorf("seeds %d and %d produced identical chaos sweeps; the seed is not reaching the traces", a, b)
	}
}

// TestGroupedPolicyResultsIdentical is the runtime-level check that a Fig 6
// run does not depend on which max-min allocator instance drives it: the
// default (nil Network), a fresh IncrementalMaxMin (grouped fill plus
// incremental diff) and one IncrementalMaxMin that already drove another
// simulation must produce a DeepEqual Result — the sequential-reuse
// contract corral.TCP documents. The targeted regression test for the
// cross-Network cache reset is netsim's TestIncrementalReuseAcrossNetworks;
// the differential against the per-flow MaxMinFair oracle is netsim_test's
// TestRunResultMatchesMaxMinFair.
func TestGroupedPolicyResultsIdentical(t *testing.T) {
	prof := profileFor(SizeS)
	topo := prof.withBackground(prof.bgFrac)
	run := func(seed int64, p netsim.Policy) *runtime.Result {
		t.Helper()
		jobs := genWorkload("W1", prof, seed, 0)
		plan, err := planJobs(topo, jobs, planner.MinimizeMakespan)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runtime.Run(runtime.Options{
			Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: seed,
			Network: p,
		}, workload.Clone(jobs))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return res
	}
	want := run(11, nil)
	if got := run(11, netsim.NewIncrementalMaxMin()); !reflect.DeepEqual(got, want) {
		t.Errorf("fresh IncrementalMaxMin diverges from the default:\n got:  %+v\n want: %+v", got, want)
	}
	shared := netsim.NewIncrementalMaxMin()
	run(12, shared)
	if got := run(11, shared); !reflect.DeepEqual(got, want) {
		t.Errorf("reused IncrementalMaxMin diverges from the default:\n got:  %+v\n want: %+v", got, want)
	}
}
