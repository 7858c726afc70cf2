package corral_test

import (
	"fmt"
	"math/rand"
	"sort"

	"corral"
)

// exampleCluster is the 5-rack cluster of the online examples: 4
// machines per rack, 10 Gbps NICs, 5:1 oversubscription to the core, and
// background transfers consuming half the core bandwidth (§6.1).
func exampleCluster() corral.ClusterConfig {
	cluster := corral.ClusterConfig{
		Racks:            5,
		MachinesPerRack:  4,
		SlotsPerMachine:  2,
		NICBandwidth:     10e9 / 8,
		Oversubscription: 5,
	}
	cluster.BackgroundPerRack = 0.5 * cluster.RackUplinkCapacity()
	return cluster
}

// ExamplePlanBatch plans a small batch of shuffle-heavy MapReduce jobs
// with Corral's offline planner and compares the simulated execution
// against YARN's capacity scheduler.
func ExamplePlanBatch() {
	// A small cluster: 4 racks x 4 machines, 10 Gbps NICs, 5:1
	// oversubscription to the core — full bisection bandwidth inside each
	// rack, a congested core between racks.
	cluster := corral.ClusterConfig{
		Racks:            4,
		MachinesPerRack:  4,
		SlotsPerMachine:  2,
		NICBandwidth:     10e9 / 8,
		Oversubscription: 5,
	}

	// Four recurring shuffle-heavy jobs: each fits in a single rack, so a
	// good plan isolates them spatially and their shuffles never touch the
	// oversubscribed core.
	var jobs []*corral.Job
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, corral.NewMapReduce(i, fmt.Sprintf("etl-%d", i), corral.Profile{
			InputBytes:   512e6,
			ShuffleBytes: 2e9,
			OutputBytes:  100e6,
			MapTasks:     8,
			ReduceTasks:  8,
			MapRate:      2e8,
			ReduceRate:   2e8,
		}))
	}

	// Offline planning: joint data + compute placement (§4).
	plan, err := corral.PlanBatch(cluster, jobs)
	if err != nil {
		panic(err)
	}
	fmt.Println("offline plan:")
	for _, j := range jobs {
		a := plan.Assignments[j.ID]
		fmt.Printf("  %s -> racks %v, priority %d, planned start %.1fs\n",
			j.Name, a.Racks, a.Priority, a.Start)
	}
	fmt.Printf("  LP lower bound on makespan: %.1fs (planned: %.1fs)\n\n",
		corral.BatchLowerBound(cluster, jobs), plan.Makespan)

	// Execute under both schedulers and compare.
	for _, run := range []struct {
		name string
		cfg  corral.SimConfig
	}{
		{"yarn-cs", corral.SimConfig{Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 42}},
		{"corral", corral.SimConfig{Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 42}},
	} {
		res, err := corral.Simulate(run.cfg, corral.CloneJobs(jobs))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s makespan %6.1fs   cross-rack %6.2f GB   compute %6.0f task-sec\n",
			run.name, res.Makespan, res.CrossRackBytes/1e9, res.TaskSeconds)
	}
	// Output:
	// offline plan:
	//   etl-1 -> racks [0], priority 0, planned start 0.0s
	//   etl-2 -> racks [1], priority 1, planned start 0.0s
	//   etl-3 -> racks [2], priority 2, planned start 0.0s
	//   etl-4 -> racks [3], priority 3, planned start 0.0s
	//   LP lower bound on makespan: 1.3s (planned: 1.3s)
	//
	// yarn-cs  makespan    3.0s   cross-rack   6.53 GB   compute     70 task-sec
	// corral   makespan    1.2s   cross-rack   0.40 GB   compute     24 task-sec
}

// ExamplePlanOnline is the §2 motivation end-to-end: synthesize a day of
// recurring jobs, plan their predicted sizes online, then execute the
// actual (noisy) sizes against the plan — the Fig 13a situation.
func ExamplePlanOnline() {
	cluster := exampleCluster()

	// Tomorrow's schedule: 12 recurring jobs arriving 8 seconds apart.
	// Each has a "predicted" input size (what the planner sees) and an
	// "actual" size differing by a few percent (what really runs). The
	// explicit float64 conversions keep a*b+c unfused on every
	// architecture, so the output does not depend on FMA.
	rng := rand.New(rand.NewSource(7))
	var predicted, actual []*corral.Job
	fmt.Println("job      predicted    actual      error")
	for i := 1; i <= 12; i++ {
		base := (1.5 + float64(rng.Float64()*6)) * 1e9
		noise := 1 + float64(rng.NormFloat64()*0.065) // the paper's 6.5% error
		mk := func(in float64) *corral.Job {
			j := corral.NewMapReduce(i, fmt.Sprintf("hourly-%d", i), corral.Profile{
				InputBytes:   in,
				ShuffleBytes: in * 2.5,
				OutputBytes:  in * 0.3,
				MapTasks:     int(in/256e6) + 1,
				ReduceTasks:  int(in/512e6) + 1,
				MapRate:      2e8,
				ReduceRate:   2e8,
			})
			j.Arrival = float64(i-1) * 8
			return j
		}
		predicted = append(predicted, mk(base))
		actual = append(actual, mk(base*noise))
		fmt.Printf("%-8s %8.2f GB %8.2f GB %+7.1f%%\n",
			predicted[i-1].Name, base/1e9, base*noise/1e9, (noise-1)*100)
	}

	// Plan on predictions; run reality.
	plan, err := corral.PlanOnline(cluster, predicted)
	if err != nil {
		panic(err)
	}
	corralRes, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 7,
	}, corral.CloneJobs(actual))
	if err != nil {
		panic(err)
	}
	yarnRes, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 7,
	}, corral.CloneJobs(actual))
	if err != nil {
		panic(err)
	}

	fmt.Printf("\navg completion: yarn-cs %.1fs -> corral %.1fs\n",
		yarnRes.AvgCompletionTime(), corralRes.AvgCompletionTime())
	fmt.Printf("cross-rack traffic: %.1f GB -> %.1f GB\n",
		yarnRes.CrossRackBytes/1e9, corralRes.CrossRackBytes/1e9)
	// Output:
	// job      predicted    actual      error
	// hourly-1     7.01 GB     7.43 GB    +5.9%
	// hourly-2     2.95 GB     2.83 GB    -4.0%
	// hourly-3     5.69 GB     5.93 GB    +4.2%
	// hourly-4     3.63 GB     3.90 GB    +7.6%
	// hourly-5     1.63 GB     1.44 GB   -11.9%
	// hourly-6     4.25 GB     4.49 GB    +5.7%
	// hourly-7     2.37 GB     2.27 GB    -4.2%
	// hourly-8     2.38 GB     2.45 GB    +3.1%
	// hourly-9     5.67 GB     5.49 GB    -3.2%
	// hourly-10     6.61 GB     6.73 GB    +1.7%
	// hourly-11     7.17 GB     7.78 GB    +8.5%
	// hourly-12     6.31 GB     6.32 GB    +0.0%
	//
	// avg completion: yarn-cs 16.0s -> corral 13.3s
	// cross-rack traffic: 128.9 GB -> 128.7 GB
}

// ExampleTPCH runs Hive-style DAG queries (§6.3) as recurring jobs
// planned by Corral while an ad-hoc MapReduce batch competes for the
// cluster, and compares query latencies against the capacity scheduler.
func ExampleTPCH() {
	cluster := exampleCluster()

	build := func() []*corral.Job {
		// Six TPC-H-shaped queries over a (scaled) shared database,
		// arriving over ninety seconds.
		queries := corral.TPCH(corral.WorkloadConfig{
			Seed: 11, Jobs: 6, Scale: 0.05, ArrivalWindow: 90,
		}, 0)
		// Plus interfering ad-hoc MapReduce work at t = 0.
		noise := corral.MarkAdHoc(corral.W1(corral.WorkloadConfig{
			Seed: 12, Jobs: 8, Scale: 1.0 / 25, TaskScale: 1.0 / 25,
		}))
		for i, j := range noise {
			j.ID = len(queries) + 1 + i
		}
		return append(queries, noise...)
	}

	queryTimes := func(res *corral.Result) []float64 {
		var out []float64
		for i := range res.Jobs {
			if !res.Jobs[i].AdHoc {
				out = append(out, res.Jobs[i].CompletionTime)
			}
		}
		sort.Float64s(out)
		return out
	}

	yarn, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 3,
	}, build())
	if err != nil {
		panic(err)
	}

	corralJobs := build()
	plan, err := corral.PlanOnline(cluster, corralJobs) // ad-hoc jobs are skipped automatically
	if err != nil {
		panic(err)
	}
	cres, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 3,
	}, corralJobs)
	if err != nil {
		panic(err)
	}

	y, c := queryTimes(yarn), queryTimes(cres)
	fmt.Println("query completion times (seconds), sorted:")
	fmt.Printf("  yarn-cs: ")
	for _, v := range y {
		fmt.Printf("%7.1f", v)
	}
	fmt.Printf("\n  corral:  ")
	for _, v := range c {
		fmt.Printf("%7.1f", v)
	}
	med := func(v []float64) float64 { return v[len(v)/2] }
	fmt.Printf("\nmedian: yarn-cs %.1fs -> corral %.1fs\n", med(y), med(c))
	// Output:
	// query completion times (seconds), sorted:
	//   yarn-cs:     8.4   11.5   11.7   12.5   13.9   19.6
	//   corral:      8.0   11.0   12.4   13.2   13.9   17.4
	// median: yarn-cs 12.5s -> corral 13.2s
}

// ExampleMarkAdHoc schedules recurring jobs with Corral while unplanned
// ad-hoc jobs share the cluster (§6.4), and compares each group's mean
// completion time against the capacity scheduler. It also shows the §3.1
// failure fallback: with most machines of a job's planned racks dead,
// Corral releases the placement constraints.
func ExampleMarkAdHoc() {
	cluster := exampleCluster()

	build := func() []*corral.Job {
		recurring := corral.W1(corral.WorkloadConfig{
			Seed: 21, Jobs: 14, Scale: 1.0 / 16, TaskScale: 1.0 / 16,
			ArrivalWindow: 60,
		})
		adhoc := corral.MarkAdHoc(corral.W1(corral.WorkloadConfig{
			Seed: 22, Jobs: 7, Scale: 1.0 / 16, TaskScale: 1.0 / 16,
		}))
		for i, j := range adhoc {
			j.ID = len(recurring) + 1 + i
		}
		return append(recurring, adhoc...)
	}

	group := func(res *corral.Result, adhoc bool) (mean float64, n int) {
		for i := range res.Jobs {
			if res.Jobs[i].AdHoc == adhoc {
				mean += res.Jobs[i].CompletionTime
				n++
			}
		}
		return mean / float64(n), n
	}

	yarn, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 9,
	}, build())
	if err != nil {
		panic(err)
	}
	jobs := build()
	plan, err := corral.PlanOnline(cluster, jobs)
	if err != nil {
		panic(err)
	}
	cres, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: 9,
	}, jobs)
	if err != nil {
		panic(err)
	}

	for _, g := range []struct {
		name  string
		adhoc bool
	}{{"recurring", false}, {"ad-hoc", true}} {
		ym, n := group(yarn, g.adhoc)
		cm, _ := group(cres, g.adhoc)
		fmt.Printf("%-10s (%2d jobs): mean completion yarn-cs %6.1fs -> corral %6.1fs\n",
			g.name, n, ym, cm)
	}

	// Failure handling: kill 3 of 4 machines in rack 0 and rerun. Jobs
	// planned onto rack 0 fall back to unconstrained placement and still
	// finish.
	failed := []int{0, 1, 2}
	fres, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: plan,
		Seed: 9, FailedMachines: failed,
	}, build())
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nwith machines %v dead: all %d jobs still completed (makespan %.1fs)\n",
		failed, len(fres.Jobs), fres.Makespan)
	// Output:
	// recurring  (14 jobs): mean completion yarn-cs  149.4s -> corral   80.4s
	// ad-hoc     ( 7 jobs): mean completion yarn-cs   45.2s -> corral   51.5s
	//
	// with machines [0 1 2] dead: all 21 jobs still completed (makespan 403.9s)
}

// ExampleReplan shows periodic replanning (§3.1): the planner
// "periodically receives updated estimates of future workload, reruns
// the planning problem, and updates the guidelines". A second wave of
// jobs becomes known only at t=60s; the replan schedules it around
// commitments from the still-running first wave, and the merged plan
// drives one simulation.
func ExampleReplan() {
	cluster := exampleCluster()

	wave1 := corral.W1(corral.WorkloadConfig{
		Seed: 31, Jobs: 8, Scale: 1.0 / 20, TaskScale: 1.0 / 20,
	})
	wave2 := corral.W1(corral.WorkloadConfig{
		Seed: 32, Jobs: 8, Scale: 1.0 / 20, TaskScale: 1.0 / 20,
	})
	const wave2At = 60.0
	for i, j := range wave2 {
		j.ID = len(wave1) + 1 + i
		j.Arrival = wave2At
	}

	// Plan wave 1 alone — wave 2 is not known yet.
	plan1, err := corral.PlanOnline(cluster, wave1)
	if err != nil {
		panic(err)
	}

	// At t=60 the second wave's estimates arrive. Jobs from wave 1 that
	// are expected to still be running hold their racks as commitments
	// (sorted by job ID: Assignments is a map, and commitment order must
	// not depend on its random iteration order).
	ids := make([]int, 0, len(plan1.Assignments))
	for id := range plan1.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var commitments []corral.Commitment
	for _, id := range ids {
		if a := plan1.Assignments[id]; a.End() > wave2At {
			commitments = append(commitments, corral.Commitment{Racks: a.Racks, Until: a.End()})
		}
	}
	plan2, err := corral.Replan(cluster, wave2, wave2At, commitments)
	if err != nil {
		panic(err)
	}
	fmt.Printf("replanned wave 2 around %d commitments:\n", len(commitments))
	for _, j := range wave2 {
		a := plan2.Assignments[j.ID]
		fmt.Printf("  job %-2d -> racks %v, planned start %.1fs\n", j.ID, a.Racks, a.Start)
	}

	merged := corral.MergePlans(plan1, plan2)
	all := append(corral.CloneJobs(wave1), corral.CloneJobs(wave2)...)

	corralRes, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerCorral, Plan: merged, Seed: 31,
	}, corral.CloneJobs(all))
	if err != nil {
		panic(err)
	}
	yarnRes, err := corral.Simulate(corral.SimConfig{
		Cluster: cluster, Scheduler: corral.SchedulerYarnCS, Seed: 31,
	}, corral.CloneJobs(all))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\navg completion: yarn-cs %.1fs -> corral (replanned) %.1fs\n",
		yarnRes.AvgCompletionTime(), corralRes.AvgCompletionTime())
	fmt.Printf("cross-rack traffic: %.1f GB -> %.1f GB\n",
		yarnRes.CrossRackBytes/1e9, corralRes.CrossRackBytes/1e9)
	// Output:
	// replanned wave 2 around 2 commitments:
	//   job 9  -> racks [4], planned start 83.6s
	//   job 10 -> racks [4], planned start 92.3s
	//   job 11 -> racks [3], planned start 60.0s
	//   job 12 -> racks [4], planned start 60.0s
	//   job 13 -> racks [4], planned start 76.6s
	//   job 14 -> racks [2], planned start 60.0s
	//   job 15 -> racks [1], planned start 96.0s
	//   job 16 -> racks [4], planned start 88.0s
	//
	// avg completion: yarn-cs 38.3s -> corral (replanned) 36.5s
	// cross-rack traffic: 187.4 GB -> 113.0 GB
}
