package corral_test

import (
	"fmt"
	"testing"

	"corral"
)

func smallCluster() corral.ClusterConfig {
	c := corral.DefaultCluster()
	c.MachinesPerRack = 4
	c.SlotsPerMachine = 2
	c.Racks = 4
	return c
}

func smallWorkload(seed int64) []*corral.Job {
	return corral.W1(corral.WorkloadConfig{
		Seed: seed, Jobs: 9, Scale: 1.0 / 40, TaskScale: 1.0 / 40,
	})
}

func TestDefaultClusterIsPaper(t *testing.T) {
	c := corral.DefaultCluster()
	if c.Machines() != 210 {
		t.Fatalf("default cluster has %d machines, want 210", c.Machines())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanAndSimulateEndToEnd(t *testing.T) {
	cluster := smallCluster()
	jobs := smallWorkload(1)
	plan, err := corral.PlanBatch(cluster, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != len(jobs) {
		t.Fatalf("plan covers %d jobs, want %d", len(plan.Assignments), len(jobs))
	}
	res, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 1,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	lb := corral.BatchLowerBound(cluster, jobs)
	if lb <= 0 {
		t.Fatal("no lower bound")
	}
	if plan.Makespan < lb*(1-1e-9) {
		t.Fatalf("planned makespan %g below LP bound %g", plan.Makespan, lb)
	}
}

func TestSchedulerComparison(t *testing.T) {
	cluster := smallCluster()
	jobs := smallWorkload(2)
	plan, err := corral.PlanBatch(cluster, jobs)
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]*corral.Result{}
	for name, cfg := range map[string]corral.SimConfig{
		"yarn":   {Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 3},
		"corral": {Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 3},
	} {
		res, err := corral.Simulate(cfg, corral.CloneJobs(jobs))
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
	}
	if results["corral"].CrossRackBytes >= results["yarn"].CrossRackBytes {
		t.Fatalf("Corral cross-rack %g >= Yarn %g",
			results["corral"].CrossRackBytes, results["yarn"].CrossRackBytes)
	}
}

func TestOnlinePlanRespectsArrivals(t *testing.T) {
	cluster := smallCluster()
	jobs := corral.W1(corral.WorkloadConfig{
		Seed: 4, Jobs: 6, Scale: 1.0 / 40, TaskScale: 1.0 / 40, ArrivalWindow: 100,
	})
	plan, err := corral.PlanOnline(cluster, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if a := plan.Assignments[j.ID]; a.Start < j.Arrival-1e-9 {
			t.Fatalf("job %d planned before arrival", j.ID)
		}
	}
	if lb := corral.OnlineLowerBound(cluster, jobs); lb <= 0 || lb > plan.AvgCompletion*(1+1e-9) {
		t.Fatalf("online bound %g vs heuristic %g", lb, plan.AvgCompletion)
	}
}

func TestLatencyModel(t *testing.T) {
	m := corral.NewLatencyModel(corral.DefaultCluster())
	j := corral.NewMapReduce(1, "probe", corral.Profile{
		InputBytes: 10e9, ShuffleBytes: 10e9, OutputBytes: 1e9,
		MapTasks: 40, ReduceTasks: 20, MapRate: 1e8, ReduceRate: 1e8,
	})
	resp := m.Response(j, m.DefaultAlpha())
	if resp.Racks() != 7 {
		t.Fatalf("response domain %d, want 7", resp.Racks())
	}
	if best := resp.ArgMin(); best < 1 || best > 7 {
		t.Fatalf("ArgMin = %d", best)
	}
}

func TestVarysPolicyAvailable(t *testing.T) {
	cluster := smallCluster()
	jobs := smallWorkload(5)
	res, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerYarnCS,
		Network: corral.VarysCoflow(), Seed: 5,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("Varys run produced nothing")
	}
}

func TestExperimentRegistryViaAPI(t *testing.T) {
	list := corral.Experiments()
	if len(list) < 20 {
		t.Fatalf("%d experiments, want >= 20", len(list))
	}
	r, err := corral.RunExperiment("table1", corral.SizeSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Values) == 0 {
		t.Fatal("experiment produced no values")
	}
	if _, err := corral.RunExperiment("bogus", corral.SizeSmall, 1); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestMarkAdHocViaAPI(t *testing.T) {
	jobs := corral.MarkAdHoc(smallWorkload(6))
	for _, j := range jobs {
		if !j.AdHoc {
			t.Fatal("MarkAdHoc did not mark")
		}
	}
}

func TestTPCHViaAPI(t *testing.T) {
	qs := corral.TPCH(corral.WorkloadConfig{Seed: 7, Jobs: 3, Scale: 0.01}, 0)
	if len(qs) != 3 {
		t.Fatalf("%d queries", len(qs))
	}
	for _, q := range qs {
		if !q.IsDAG() {
			t.Fatal("TPCH query is not a DAG")
		}
	}
}

// TestRejectsNilAndDuplicateJobs: a nil job is an error, not a panic, on
// every entry point that takes jobs, and the planner rejects two jobs
// sharing an ID instead of planning one of them.
func TestRejectsNilAndDuplicateJobs(t *testing.T) {
	cluster := smallCluster()
	withNil := append(smallWorkload(1), nil)
	if _, err := corral.PlanBatch(cluster, withNil); err == nil || err.Error() != "job: nil job" {
		t.Fatalf("PlanBatch with a nil job: error %v, want job: nil job", err)
	}
	if _, err := corral.PlanOnline(cluster, withNil); err == nil || err.Error() != "job: nil job" {
		t.Fatalf("PlanOnline with a nil job: error %v, want job: nil job", err)
	}
	_, err := corral.Simulate(corral.SimConfig{Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 1}, withNil)
	if err == nil || err.Error() != "job: nil job" {
		t.Fatalf("Simulate with a nil job: error %v, want job: nil job", err)
	}

	jobs := smallWorkload(1)[:4]
	jobs[3].ID = jobs[1].ID
	want := fmt.Sprintf("planner: duplicate job ID %d", jobs[1].ID)
	if p, err := corral.PlanOnline(cluster, jobs); err == nil || err.Error() != want {
		t.Fatalf("PlanOnline with a duplicate ID: plan %v, error %v, want %q", p, err, want)
	}
}
