package corral_test

// Micro-benchmarks of the core components: plain `go test -bench`
// profiling targets with no baseline. The deterministic values these
// scenarios produce (cost model, admission counts, snapshot size and
// resumed makespan, plan objectives) are gated bit for bit in the api
// section of TestReportGolden; the paper's experiments themselves are
// gated there too, through the registry.

import (
	"testing"

	"corral"
)

func BenchmarkPlannerBatch100Jobs(b *testing.B) {
	cluster := corral.DefaultCluster()
	jobs := corral.W1(corral.WorkloadConfig{Seed: 1, Jobs: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corral.PlanBatch(cluster, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPBound100Jobs(b *testing.B) {
	cluster := corral.DefaultCluster()
	jobs := corral.W1(corral.WorkloadConfig{Seed: 1, Jobs: 100})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if corral.BatchLowerBound(cluster, jobs) <= 0 {
			b.Fatal("bad bound")
		}
	}
}

// benchCluster is the 16-machine cluster of the small simulation
// benchmarks.
func benchCluster() corral.ClusterConfig {
	return corral.ClusterConfig{
		Racks: 4, MachinesPerRack: 4, SlotsPerMachine: 2,
		NICBandwidth: 10e9 / 8, Oversubscription: 5,
	}
}

func benchJobs() []*corral.Job {
	return corral.W1(corral.WorkloadConfig{Seed: 1, Jobs: 12, Scale: 1.0 / 20, TaskScale: 1.0 / 20})
}

func BenchmarkSimulateSmallBatch(b *testing.B) {
	cluster, jobs := benchCluster(), benchJobs()
	plan, err := corral.PlanBatch(cluster, jobs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corral.Simulate(corral.SimConfig{
			Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 1,
		}, corral.CloneJobs(jobs)); err != nil {
			b.Fatal(err)
		}
	}
}

// Overload-hardening benchmarks: the planner cost model that budgets are
// compared against, and an admission-controlled simulation.

func BenchmarkPlannerCostModel(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for jobs := 1; jobs <= 256; jobs *= 4 {
			for racks := 2; racks <= 32; racks *= 2 {
				sink += corral.PlannerCostFull(jobs, racks, 3*jobs)
				sink += corral.PlannerCostIncremental(jobs, racks, 3*jobs)
			}
		}
	}
	if sink <= 0 {
		b.Fatal("cost model returned nothing")
	}
}

// simulateAdmission runs the small cluster with 12 jobs arriving 0.1 s
// apart, two admitted at a time and at most four queued.
func simulateAdmission(tb testing.TB) *corral.Result {
	tb.Helper()
	jobs := benchJobs()
	for i, j := range jobs {
		j.Arrival = 0.1 * float64(i)
	}
	res, err := corral.Simulate(corral.SimConfig{
		Cluster: benchCluster(), Seed: 1,
		AdmissionLimit: 2, AdmissionQueueCap: 4,
	}, jobs)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func BenchmarkAdmissionControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		simulateAdmission(b)
	}
}

// Snapshot-layer benchmarks: the cost of capturing a mid-flight snapshot
// (simulate to the midpoint + deep state export), of encoding it to the
// canonical checksummed byte form, and of a full restore (replay to the
// capture point + field-level audit + run to completion).

func snapshotScenario(tb testing.TB) (*corral.Snapshot, []byte) {
	tb.Helper()
	snap, err := corral.CaptureScenarioSnapshot(corral.SizeSmall, 1, corral.CheckpointTarget{EventIndex: 150})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := corral.EncodeSnapshot(snap)
	if err != nil {
		tb.Fatal(err)
	}
	return snap, raw
}

func resumeSnapshot(tb testing.TB, raw []byte) *corral.Result {
	tb.Helper()
	snap, err := corral.DecodeSnapshot(raw)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := corral.ResumeSnapshot(snap, corral.ResumeOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func BenchmarkSnapshotCapture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		snapshotScenario(b)
	}
}

func BenchmarkSnapshotEncode(b *testing.B) {
	snap, _ := snapshotScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := corral.EncodeSnapshot(snap)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := corral.DecodeSnapshot(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotResume(b *testing.B) {
	_, raw := snapshotScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resumeSnapshot(b, raw)
	}
}

// Datacenter-scale planning benchmarks: one full two-phase plan over the
// scale suite's 2k- and 10k-machine cell shapes (J·(R−1)+1 provisioning
// candidates: ~9.8k at 2k machines, ~89.6k at 10k).

// scaleCell returns the scale suite's cell shape for machines machines.
func scaleCell(machines int) (corral.ClusterConfig, []*corral.Job) {
	cluster := corral.ClusterConfig{
		Racks: machines / 40, MachinesPerRack: 40, SlotsPerMachine: 2,
		NICBandwidth: 10e9 / 8, Oversubscription: 5,
	}
	jobs := corral.W1(corral.WorkloadConfig{
		Seed: 1, Jobs: 160 + machines/50,
		Scale: 1.0 / 8, TaskScale: 1.0 / 8,
		ArrivalWindow: float64(machines) / 20,
	})
	return cluster, jobs
}

func benchPlan(b *testing.B, machines int) {
	b.Helper()
	cluster, jobs := scaleCell(machines)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corral.PlanOnline(cluster, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlan2k(b *testing.B)  { benchPlan(b, 2000) }
func BenchmarkPlan10k(b *testing.B) { benchPlan(b, 10000) }
