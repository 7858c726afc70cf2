package corral_test

import (
	"runtime"
	"testing"

	"corral"
)

// budgetCluster is bench/workload.go's scaleCluster: racks of 40
// two-slot machines on 10 Gbps NICs, 5:1 oversubscribed.
func budgetCluster(racks int) corral.ClusterConfig {
	return corral.ClusterConfig{
		Racks: racks, MachinesPerRack: 40, SlotsPerMachine: 2,
		NICBandwidth: 10 * 1e9 / 8, Oversubscription: 5,
	}
}

// budgetFlapStorm is bench/workload.go's flapStorm: rack (7i mod racks)
// down for half a period every H/40 from 0.05H to 0.8H.
func budgetFlapStorm(racks int, horizon float64) []corral.LinkFault {
	period := horizon / 40
	var out []corral.LinkFault
	for i := 0; ; i++ {
		at := 0.05*horizon + float64(i)*period
		if at > 0.8*horizon {
			return out
		}
		r := (7 * i) % racks
		out = append(out,
			corral.LinkFault{At: at, Rack: r, Factor: 0},
			corral.LinkFault{At: at + period/2, Rack: r, Factor: 1})
	}
}

// simulateBytesPerEvent plans the jobs online and returns the heap bytes
// one Corral Simulate allocates per event, the bench's
// sim_alloc_b_per_event.
func simulateBytesPerEvent(t *testing.T, cfg corral.SimConfig, jobs []*corral.Job) float64 {
	t.Helper()
	clones := corral.CloneJobs(jobs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := corral.Simulate(cfg, clones)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Events)
}

// TestSimulateBytesPerEventBudget runs the bench's tiny dc-online and
// chaos-resume shapes (bench/workload.go) at seed 1 and bounds the bytes
// Simulate allocates per event at 5% over the value this test logged
// (go test -v, go1.24 on amd64) once the reduce-completion slices were
// sized up front: dc-online 465 B, chaos-resume 980 B (471 B and 997 B
// under -race; 469 B and 983 B before, 568 B and 1056 B before event
// nodes, task attempts and loopback flows came from free lists, 675 B and
// 1134 B before the attempt phase machine, 890 B and 1262 B before the
// compact locality indexes).
// A change that puts an allocation back on a per-event or per-task path
// fails here before the bench sees it.
func TestSimulateBytesPerEventBudget(t *testing.T) {
	const (
		onlineBudget = 465 * 1.05
		chaosBudget  = 980 * 1.05
	)
	cluster := budgetCluster(5)

	online := corral.W1(corral.WorkloadConfig{Jobs: 12, Scale: 1.0 / 40, TaskScale: 1.0 / 40, ArrivalWindow: 60, Seed: 1})
	plan, err := corral.PlanOnline(cluster, online)
	if err != nil {
		t.Fatal(err)
	}
	cfg := corral.SimConfig{Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 1}
	if b := simulateBytesPerEvent(t, cfg, online); b > onlineBudget {
		t.Errorf("dc-online: %.1f B/event, budget %.0f", b, onlineBudget)
	} else {
		t.Logf("dc-online: %.1f B/event", b)
	}

	chaos := corral.W1(corral.WorkloadConfig{Jobs: 12, Scale: 1.0 / 40, TaskScale: 1.0 / 40, ArrivalWindow: 30, Seed: 1})
	if plan, err = corral.PlanOnline(cluster, chaos); err != nil {
		t.Fatal(err)
	}
	cfg = corral.SimConfig{Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 1}
	clean, err := corral.Simulate(cfg, corral.CloneJobs(chaos))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Failures, cfg.LinkFaults = corral.GenChaosTrace(cluster, 1, 0.05, clean.Makespan)
	cfg.LinkFaults = append(cfg.LinkFaults, budgetFlapStorm(cluster.Racks, clean.Makespan)...)
	cfg.ReplanOnFailure = true
	if b := simulateBytesPerEvent(t, cfg, chaos); b > chaosBudget {
		t.Errorf("chaos-resume: %.1f B/event, budget %.0f", b, chaosBudget)
	} else {
		t.Logf("chaos-resume: %.1f B/event", b)
	}
}
