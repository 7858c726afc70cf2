package runtime

import (
	"testing"

	"corral/internal/job"
	"corral/internal/planner"
)

func TestRemoteStorageRequiresInterconnect(t *testing.T) {
	if _, err := Run(Options{Cluster: smallTopo(), RemoteStorageInput: true}, nil); err == nil {
		t.Fatal("remote storage without interconnect not rejected")
	}
}

func TestRemoteStorageInputFetches(t *testing.T) {
	topo := smallTopo()
	topo.RemoteStorageBandwidth = 20 * gbps
	jobs := []*job.Job{shuffleJob(1)}
	res := mustRun(t, Options{
		Cluster: topo, BlockSize: 64e6, Seed: 31, RemoteStorageInput: true,
	}, jobs)
	if res.Jobs[0].CompletionTime <= 0 {
		t.Fatal("remote-storage job did not complete")
	}
	// Input never lands in the DFS: rack CoV must be zero (no stored data).
	if res.InputRackCoV != 0 {
		t.Fatalf("remote-storage run stored input locally (CoV %g)", res.InputRackCoV)
	}
}

func TestRemoteStorageInterconnectBottleneck(t *testing.T) {
	// Halving the interconnect must slow the batch down: input fetches are
	// serialized behind the shared link.
	run := func(bw float64) float64 {
		topo := smallTopo()
		topo.RemoteStorageBandwidth = bw
		var jobs []*job.Job
		for i := 1; i <= 3; i++ {
			jobs = append(jobs, shuffleJob(i))
		}
		res := mustRun(t, Options{
			Cluster: topo, BlockSize: 64e6, Seed: 32, RemoteStorageInput: true,
		}, jobs)
		return res.Makespan
	}
	fast := run(40 * gbps)
	slow := run(1 * gbps)
	if slow <= fast {
		t.Fatalf("interconnect bottleneck has no effect: %g vs %g", slow, fast)
	}
}

func TestRemoteStorageCorralStillWins(t *testing.T) {
	// §7: with remote storage, Corral still helps by keeping the shuffle
	// and reduce stages rack-local.
	topo := smallTopo()
	topo.RemoteStorageBandwidth = 40 * gbps
	var jobs []*job.Job
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, shuffleJob(i))
	}
	plan := planFor(t, topo, jobs, planner.MinimizeMakespan)
	yarn := mustRun(t, Options{
		Cluster: topo, Scheduler: YarnCS, BlockSize: 64e6, Seed: 33, RemoteStorageInput: true,
	}, jobs)
	corral := mustRun(t, Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 33, RemoteStorageInput: true,
	}, jobs)
	if corral.CrossRackBytes >= yarn.CrossRackBytes {
		t.Fatalf("Corral cross-rack %g >= Yarn %g under remote storage",
			corral.CrossRackBytes, yarn.CrossRackBytes)
	}
}

func TestInMemoryModeSkipsWrites(t *testing.T) {
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1)}
	plan := planFor(t, topo, jobs, planner.MinimizeMakespan)
	if len(plan.Assignments[1].Racks) != 1 {
		t.Skip("plan spread the job")
	}
	res := mustRun(t, Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6,
		Seed: 34, InMemoryInput: true,
	}, jobs)
	// With a 1-rack plan and no replicated writes, nothing crosses racks.
	if res.Jobs[0].CrossRackBytes > 1e6 {
		t.Fatalf("in-memory single-rack job moved %g cross-rack bytes",
			res.Jobs[0].CrossRackBytes)
	}
}

func TestInMemoryStillNetworkBound(t *testing.T) {
	// §7's point: even in-memory systems bottleneck on the network, so
	// Corral's shuffle locality still reduces completion time on a
	// shuffle-heavy batch.
	topo := smallTopo()
	var jobs []*job.Job
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, shuffleJob(i))
	}
	plan := planFor(t, topo, jobs, planner.MinimizeMakespan)
	yarn := mustRun(t, Options{
		Cluster: topo, Scheduler: YarnCS, BlockSize: 64e6, Seed: 35, InMemoryInput: true,
	}, jobs)
	corral := mustRun(t, Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 35, InMemoryInput: true,
	}, jobs)
	if corral.Makespan >= yarn.Makespan {
		t.Fatalf("in-memory Corral %g >= Yarn %g", corral.Makespan, yarn.Makespan)
	}
}
