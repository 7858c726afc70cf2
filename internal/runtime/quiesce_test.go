package runtime

import (
	"testing"

	"corral/internal/job"
)

// TestQuiesceTimeFoldsRepairTail pins the Makespan/QuiesceTime split: a
// machine failure after the last job completion leaves the cluster busy
// re-replicating, which must extend QuiesceTime but never Makespan (the
// paper's job-facing metric excludes repair traffic).
func TestQuiesceTimeFoldsRepairTail(t *testing.T) {
	topo := smallTopo()
	mk := func() []*job.Job { return []*job.Job{shuffleJob(1)} }

	clean := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 61}, mk())
	//corralvet:ok floateq exact identity intended: with no repair tail QuiesceTime is math.Max(Makespan, 0), a copy
	if clean.QuiesceTime != clean.Makespan {
		t.Fatalf("no repairs ran, yet QuiesceTime %g != Makespan %g",
			clean.QuiesceTime, clean.Makespan)
	}

	// Kill a machine well after the job is done: its replicas are
	// re-replicated by flows that are pure repair tail.
	late := clean.Makespan + 5
	res := mustRun(t, Options{
		Cluster: topo, BlockSize: 64e6, Seed: 61,
		Failures: []Failure{{At: late, Machine: 0}},
	}, mk())
	//corralvet:ok floateq exact identity intended: a failure after the last job finished must leave the schedule untouched
	if res.Makespan != clean.Makespan {
		t.Fatalf("post-completion failure changed Makespan: %g vs %g",
			res.Makespan, clean.Makespan)
	}
	if res.RepairBytes == 0 {
		t.Fatal("late failure triggered no re-replication; premise gone")
	}
	if res.QuiesceTime <= late {
		t.Fatalf("QuiesceTime %g does not cover the repair tail after the failure at %g",
			res.QuiesceTime, late)
	}
}
