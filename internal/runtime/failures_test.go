package runtime

import (
	"testing"

	"corral/internal/job"
	"corral/internal/planner"
)

func TestMidRunFailureTasksReexecute(t *testing.T) {
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1)}
	// Kill three machines shortly after the job starts: its in-flight
	// tasks must be re-executed and the job must still complete.
	res := mustRun(t, Options{
		Cluster: topo, BlockSize: 64e6, Seed: 21,
		Failures: []Failure{{At: 0.5, Machine: 0}, {At: 0.5, Machine: 1}, {At: 0.7, Machine: 2}},
	}, jobs)
	jr := res.Jobs[0]
	if jr.CompletionTime <= 0 {
		t.Fatal("job did not survive mid-run failures")
	}
	// Compare against a failure-free run: losing in-flight work should not
	// make the job substantially faster. (It can be marginally faster:
	// failures shift the randomized heartbeat order, and a lucky placement
	// may beat the clean run by noise.)
	clean := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 21}, []*job.Job{shuffleJob(1)})
	if jr.CompletionTime < 0.8*clean.Jobs[0].CompletionTime {
		t.Fatalf("failure run (%g) much faster than clean run (%g)",
			jr.CompletionTime, clean.Jobs[0].CompletionTime)
	}
}

func TestMidRunFailureCorralFallback(t *testing.T) {
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1)}
	plan := planFor(t, topo, jobs, planner.MinimizeMakespan)
	a := plan.Assignments[1]
	if len(a.Racks) != 1 {
		t.Skip("plan spread the job; premise gone")
	}
	// Kill a majority of the assigned rack mid-run.
	lo := a.Racks[0] * topo.MachinesPerRack
	res := mustRun(t, Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 22,
		Failures: []Failure{
			{At: 0.2, Machine: lo}, {At: 0.2, Machine: lo + 1}, {At: 0.2, Machine: lo + 2},
		},
	}, jobs)
	if res.Jobs[0].CompletionTime <= 0 {
		t.Fatal("job did not complete after mid-run rack failure")
	}
	if res.Jobs[0].RacksUsed < 2 {
		t.Fatalf("job stayed on %d rack(s); fallback did not trigger", res.Jobs[0].RacksUsed)
	}
}

func TestFailureValidation(t *testing.T) {
	if _, err := Run(Options{Cluster: smallTopo(), Failures: []Failure{{At: 1, Machine: 10000}}}, nil); err == nil {
		t.Fatal("out-of-range failure machine not rejected")
	}
	if _, err := Run(Options{Cluster: smallTopo(), Failures: []Failure{{At: -1, Machine: 0}}}, nil); err == nil {
		t.Fatal("negative failure time not rejected")
	}
}

func TestFailAllReplicasStillReadable(t *testing.T) {
	// Even when one machine with a replica dies, the remaining replicas
	// keep every block readable (2+1 spread across two racks).
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1)}
	var failures []Failure
	// Kill one machine per rack early.
	for r := 0; r < topo.Racks; r++ {
		failures = append(failures, Failure{At: 0.1, Machine: r * topo.MachinesPerRack})
	}
	res := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 23, Failures: failures}, jobs)
	if res.Jobs[0].CompletionTime <= 0 {
		t.Fatal("job starved after per-rack failures")
	}
}

func TestStragglersSlowJobsDown(t *testing.T) {
	topo := smallTopo()
	mk := func() []*job.Job { return []*job.Job{shuffleJob(1)} }
	clean := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 24}, mk())
	slow := mustRun(t, Options{
		Cluster: topo, BlockSize: 64e6, Seed: 24,
		StragglerFraction: 0.5,
	}, mk())
	if slow.Makespan <= clean.Makespan {
		t.Fatalf("stragglers did not slow the job: %g vs %g", slow.Makespan, clean.Makespan)
	}
}

func TestSpeculationMitigatesStragglers(t *testing.T) {
	topo := smallTopo()
	mk := func() []*job.Job { return []*job.Job{shuffleJob(1)} }
	base := Options{
		Cluster: topo, BlockSize: 64e6, Seed: 25,
		StragglerFraction: 0.3,
	}
	noSpec := mustRun(t, base, mk())
	withSpec := base
	withSpec.Speculation = true
	spec := mustRun(t, withSpec, mk())
	if spec.Makespan >= noSpec.Makespan {
		t.Fatalf("speculation did not help: %g vs %g", spec.Makespan, noSpec.Makespan)
	}
}

func TestSpeculationHarmlessWithoutStragglers(t *testing.T) {
	topo := smallTopo()
	mk := func() []*job.Job { return []*job.Job{shuffleJob(1)} }
	clean := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 26}, mk())
	spec := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 26, Speculation: true}, mk())
	//corralvet:ok floateq exact identity intended: without stragglers speculation must not change the schedule at all
	if spec.Makespan != clean.Makespan {
		t.Fatalf("speculation changed a straggler-free run: %g vs %g", spec.Makespan, clean.Makespan)
	}
}

func TestFailureDeterminism(t *testing.T) {
	run := func() *Result {
		topo := smallTopo()
		jobs := []*job.Job{shuffleJob(1), shuffleJob(2)}
		return mustRun(t, Options{
			Cluster: topo, BlockSize: 64e6, Seed: 27,
			Failures:          []Failure{{At: 1, Machine: 3}, {At: 2, Machine: 7}},
			StragglerFraction: 0.2, Speculation: true,
		}, jobs)
	}
	a, b := run(), run()
	//corralvet:ok floateq exact identity intended: same-seed reruns must be bit-identical
	if a.Makespan != b.Makespan || a.CrossRackBytes != b.CrossRackBytes {
		t.Fatalf("failure+straggler run nondeterministic: (%g,%g) vs (%g,%g)",
			a.Makespan, a.CrossRackBytes, b.Makespan, b.CrossRackBytes)
	}
}

func TestManyFailuresNoDeadlock(t *testing.T) {
	// Kill half the cluster in waves while a batch runs.
	topo := smallTopo()
	var jobs []*job.Job
	for i := 1; i <= 3; i++ {
		jobs = append(jobs, shuffleJob(i))
	}
	var failures []Failure
	for i := 0; i < topo.Machines()/2; i++ {
		failures = append(failures, Failure{At: float64(i) * 0.3, Machine: i * 2})
	}
	res := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 28, Failures: failures}, jobs)
	for _, jr := range res.Jobs {
		if jr.CompletionTime <= 0 {
			t.Fatalf("job %d never finished under cascading failures", jr.ID)
		}
	}
}
