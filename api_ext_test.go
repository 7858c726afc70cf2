package corral_test

import (
	"sort"
	"testing"

	"corral"
)

func TestReplanViaAPI(t *testing.T) {
	cluster := smallCluster()
	wave1 := smallWorkload(41)
	plan1, err := corral.PlanOnline(cluster, wave1)
	if err != nil {
		t.Fatal(err)
	}
	// Second wave arrives at t=100; racks of still-running wave-1 jobs are
	// committed.
	wave2 := smallWorkload(42)
	for i, j := range wave2 {
		j.ID = len(wave1) + 1 + i
		j.Arrival = 100
	}
	// Sorted by job ID: Assignments is a map, and the commitment order
	// fed to Replan must not depend on its random iteration order.
	ids := make([]int, 0, len(plan1.Assignments))
	for id := range plan1.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var commitments []corral.Commitment
	for _, id := range ids {
		if a := plan1.Assignments[id]; a.End() > 100 {
			commitments = append(commitments, corral.Commitment{Racks: a.Racks, Until: a.End()})
		}
	}
	plan2, err := corral.Replan(cluster, wave2, 100, commitments)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan2.Assignments {
		if a.Start < 100 {
			t.Fatalf("replanned job %d starts at %g before now", a.JobID, a.Start)
		}
	}
	merged := corral.MergePlans(plan1, plan2)
	if len(merged.Assignments) != len(wave1)+len(wave2) {
		t.Fatalf("merged plan covers %d jobs, want %d",
			len(merged.Assignments), len(wave1)+len(wave2))
	}
	// The merged plan drives a real simulation of both waves.
	res, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: merged, Seed: 41,
	}, append(corral.CloneJobs(wave1), wave2...))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("merged-plan simulation went nowhere")
	}
}

func TestFailureInjectionViaAPI(t *testing.T) {
	cluster := smallCluster()
	jobs := smallWorkload(43)
	res, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 43,
		Failures: []corral.Failure{{At: 1, Machine: 0}, {At: 2, Machine: 5}},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Jobs {
		if res.Jobs[i].CompletionTime <= 0 {
			t.Fatalf("job %d lost to failures", res.Jobs[i].ID)
		}
	}
}

func TestStragglersAndSpeculationViaAPI(t *testing.T) {
	cluster := smallCluster()
	base := corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 44,
		StragglerFraction: 0.3,
	}
	slow, err := corral.Simulate(base, smallWorkload(44))
	if err != nil {
		t.Fatal(err)
	}
	spec := base
	spec.Speculation = true
	fast, err := corral.Simulate(spec, smallWorkload(44))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Makespan >= slow.Makespan {
		t.Fatalf("speculation did not help: %g vs %g", fast.Makespan, slow.Makespan)
	}
}

func TestRemoteStorageViaAPI(t *testing.T) {
	cluster := smallCluster()
	cluster.RemoteStorageBandwidth = 4e9
	res, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 45,
		RemoteStorageInput: true,
	}, smallWorkload(45))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("remote-storage simulation went nowhere")
	}
}

func TestInMemoryViaAPI(t *testing.T) {
	cluster := smallCluster()
	jobs := smallWorkload(46)
	plain, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 46,
	}, corral.CloneJobs(jobs))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 46,
		InMemoryInput: true,
	}, corral.CloneJobs(jobs))
	if err != nil {
		t.Fatal(err)
	}
	// No replicated writes -> strictly less network traffic.
	if mem.CrossRackBytes >= plain.CrossRackBytes {
		t.Fatalf("in-memory cross-rack %g >= plain %g", mem.CrossRackBytes, plain.CrossRackBytes)
	}
}
