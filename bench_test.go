package corral_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, each running the corresponding experiment end to end
// (workload generation, offline planning, full cluster simulation) and
// reporting the key reproduced quantity as a custom metric.
//
// Size defaults to the fast "s" profile so `go test -bench=.` completes in
// well under a minute; set CORRAL_BENCH_SIZE=m (or l) to run the scaled
// 7-rack profile the EXPERIMENTS.md numbers are quoted from.

import (
	"os"
	"testing"

	"corral"
)

func benchSize(b *testing.B) corral.ExperimentSize {
	switch os.Getenv("CORRAL_BENCH_SIZE") {
	case "m", "medium":
		return corral.SizeMedium
	case "l", "large", "full":
		return corral.SizeLarge
	default:
		return corral.SizeSmall
	}
}

// benchExperiment runs one experiment per iteration and republishes the
// named outcome values as benchmark metrics.
func benchExperiment(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	size := benchSize(b)
	var last *corral.ExperimentReport
	for i := 0; i < b.N; i++ {
		r, err := corral.RunExperiment(id, size, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, k := range metricKeys {
		if v, ok := last.Values[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

func BenchmarkFig1_RecurringPredictability(b *testing.B) {
	benchExperiment(b, "fig1", "prediction_mape_pct")
}

func BenchmarkFig2_SlotsCDF(b *testing.B) {
	benchExperiment(b, "fig2", "cluster1_under_one_rack_frac")
}

func BenchmarkTable1_W3Characteristics(b *testing.B) {
	benchExperiment(b, "table1", "input_gb_p50", "shuffle_gb_p95")
}

func BenchmarkLPGap(b *testing.B) {
	benchExperiment(b, "lpgap", "W1_batch_gap_pct")
}

func BenchmarkFig5_PlannerScaling(b *testing.B) {
	benchExperiment(b, "fig5")
}

func BenchmarkFig6_BatchMakespan(b *testing.B) {
	benchExperiment(b, "fig6", "W1_corral_makespan_reduction_pct")
}

func BenchmarkFig7a_CrossRack(b *testing.B) {
	benchExperiment(b, "fig7a", "W1_corral_crossrack_reduction_pct")
}

func BenchmarkFig7b_ComputeHours(b *testing.B) {
	benchExperiment(b, "fig7b", "W1_corral_computehours_reduction_pct")
}

func BenchmarkFig7c_ReduceTimes(b *testing.B) {
	benchExperiment(b, "fig7c", "reduce_time_median_reduction_pct")
}

func BenchmarkFig8_OnlineCDF(b *testing.B) {
	benchExperiment(b, "fig8", "W1_median_reduction_pct")
}

func BenchmarkFig9_BySize(b *testing.B) {
	benchExperiment(b, "fig9", "large_corral_avg_reduction_pct")
}

func BenchmarkFig10_TPCH(b *testing.B) {
	benchExperiment(b, "fig10", "median_reduction_pct", "mean_reduction_pct")
}

func BenchmarkFig11_AdHocMix(b *testing.B) {
	benchExperiment(b, "fig11", "recurring_mean_reduction_pct", "adhoc_makespan_reduction_pct")
}

func BenchmarkFig12_BackgroundSweep(b *testing.B) {
	benchExperiment(b, "fig12", "makespan_reduction_pct_bg50", "makespan_reduction_pct_bg67")
}

func BenchmarkFig13a_SizeError(b *testing.B) {
	benchExperiment(b, "fig13a", "makespan_reduction_pct_err50")
}

func BenchmarkFig13b_ArrivalError(b *testing.B) {
	benchExperiment(b, "fig13b", "avgtime_reduction_pct_delayed50")
}

func BenchmarkFig14_FlowSchedulers(b *testing.B) {
	benchExperiment(b, "fig14", "corral+tcp_median_reduction_pct", "corral+varys_median_reduction_pct")
}

func BenchmarkDataBalance(b *testing.B) {
	benchExperiment(b, "balance", "cov_corral", "cov_hdfs")
}

func BenchmarkAblationAlpha(b *testing.B) {
	benchExperiment(b, "ablation-alpha", "cov_alpha_on", "cov_alpha_off")
}

func BenchmarkAblationProvision(b *testing.B) {
	benchExperiment(b, "ablation-provision", "makespan_full", "makespan_onerack")
}

func BenchmarkAblationPriority(b *testing.B) {
	benchExperiment(b, "ablation-priority", "makespan_widest_first", "makespan_plain_lpt")
}

func BenchmarkAblationDelay(b *testing.B) {
	benchExperiment(b, "ablation-delay")
}

// Micro-benchmarks of the core components.

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

func BenchmarkSimulateSmallBatch(b *testing.B) {
	cluster := corral.ClusterConfig{
		Racks: 4, MachinesPerRack: 4, SlotsPerMachine: 2,
		NICBandwidth: 10e9 / 8, Oversubscription: 5,
	}
	jobs := corral.W1(corral.WorkloadConfig{Seed: 1, Jobs: 12, Scale: 1.0 / 20, TaskScale: 1.0 / 20})
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

// Sweep wall-clock benchmarks. The chaos and fuzz experiments fan their
// independent cells (intensity x scheduler, fuzz traces) out over the
// experiment worker pool; the Serial/Parallel pairs capture the wall-clock
// effect of the pool. Only ns/op is reported — the parallel-sweep
// determinism tests prove the Reports are bit-identical for any worker
// count, so there is no semantic metric to track here.

func benchChaosSweep(b *testing.B, workers int) {
	b.Helper()
	corral.SetSweepWorkers(workers)
	defer corral.SetSweepWorkers(0)
	size := benchSize(b)
	intensities := []float64{0.2, 0.4, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corral.RunChaosExperiment(size, 1, intensities); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChaosSweepSerial(b *testing.B)   { benchChaosSweep(b, 1) }
func BenchmarkChaosSweepParallel(b *testing.B) { benchChaosSweep(b, 0) }

func benchFuzzSweep(b *testing.B, workers int) {
	b.Helper()
	corral.SetSweepWorkers(workers)
	defer corral.SetSweepWorkers(0)
	size := benchSize(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corral.RunFuzzExperiment(size, 1, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFuzzSweepSerial(b *testing.B)   { benchFuzzSweep(b, 1) }
func BenchmarkFuzzSweepParallel(b *testing.B) { benchFuzzSweep(b, 0) }

func BenchmarkExtRemoteStorage(b *testing.B) {
	benchExperiment(b, "ext-remote", "makespan_reduction_pct")
}

func BenchmarkExtInMemory(b *testing.B) {
	benchExperiment(b, "ext-inmemory", "makespan_reduction_pct")
}

func BenchmarkExtFailures(b *testing.B) {
	benchExperiment(b, "ext-failures", "slowdown_pct")
}

func BenchmarkExtSpeculation(b *testing.B) {
	benchExperiment(b, "ext-speculation", "makespan_speculation")
}

func BenchmarkExtReplan(b *testing.B) {
	benchExperiment(b, "ext-replan", "avg_replan", "avg_oracle")
}

func BenchmarkExtSharedData(b *testing.B) {
	benchExperiment(b, "ext-shared-data", "crossrack_gb_shared", "crossrack_gb_perjob")
}

// Overload-hardening benchmarks: the planner cost model that budgets are
// compared against, an admission-controlled simulation, and the full
// overload sweep (3 configurations x 2 rates under a fault storm). The
// deferred/shed counts and cost-model values are deterministic, so the
// regression gate pins them bit for bit.

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
	b.ReportMetric(corral.PlannerCostFull(100, 16, 300), "cost_full_100j16r")
	b.ReportMetric(corral.PlannerCostIncremental(100, 16, 300), "cost_incremental_100j16r")
}

func BenchmarkAdmissionControl(b *testing.B) {
	cluster := corral.ClusterConfig{
		Racks: 4, MachinesPerRack: 4, SlotsPerMachine: 2,
		NICBandwidth: 10e9 / 8, Oversubscription: 5,
	}
	jobs := corral.W1(corral.WorkloadConfig{Seed: 1, Jobs: 12, Scale: 1.0 / 20, TaskScale: 1.0 / 20})
	for i, j := range jobs {
		j.Arrival = 0.1 * float64(i)
	}
	b.ResetTimer()
	var res *corral.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = corral.Simulate(corral.SimConfig{
			Cluster: cluster, Seed: 1,
			AdmissionLimit: 2, AdmissionQueueCap: 4,
		}, corral.CloneJobs(jobs))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Deferred), "deferred")
	b.ReportMetric(float64(res.Shed), "shed")
	b.ReportMetric(float64(res.MaxAdmissionQueue), "peak_queue")
}

func benchOverloadSweep(b *testing.B, workers int) {
	b.Helper()
	corral.SetSweepWorkers(workers)
	defer corral.SetSweepWorkers(0)
	size := benchSize(b)
	var rep *corral.ExperimentReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = corral.RunOverloadSweep(corral.OverloadParams{Size: size, Seed: 1, Rates: []float64{1, 4}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Values["violations_budgeted_r04"], "violations_budgeted_r04")
	b.ReportMetric(rep.Values["suppressed_r04"], "suppressed_r04")
}

func BenchmarkOverloadSweepSerial(b *testing.B)   { benchOverloadSweep(b, 1) }
func BenchmarkOverloadSweepParallel(b *testing.B) { benchOverloadSweep(b, 0) }

// Snapshot-layer benchmarks: the cost of capturing a mid-flight snapshot
// (simulate to the midpoint + deep state export), of encoding it to the
// canonical checksummed byte form, and of a full restore (replay to the
// capture point + field-level audit + run to completion). Snapshot size in
// bytes is reported as a semantic metric — it is a deterministic function
// of the pinned scenario, so the regression gate pins it bit for bit.

func snapshotScenario(b *testing.B) (*corral.Snapshot, []byte) {
	b.Helper()
	snap, err := corral.CaptureScenarioSnapshot(benchSize(b), 1, corral.CheckpointTarget{EventIndex: 150})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := corral.EncodeSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	return snap, raw
}

func BenchmarkSnapshotCapture(b *testing.B) {
	var raw []byte
	for i := 0; i < b.N; i++ {
		_, raw = snapshotScenario(b)
	}
	b.ReportMetric(float64(len(raw)), "snapshot_bytes")
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
	var res *corral.Result
	for i := 0; i < b.N; i++ {
		snap, err := corral.DecodeSnapshot(raw)
		if err != nil {
			b.Fatal(err)
		}
		res, err = corral.ResumeSnapshot(snap, corral.ResumeOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Makespan, "makespan_s")
}

// Datacenter-scale planning benchmarks: one full two-phase plan over the
// scale suite's 2k- and 10k-machine cell shapes (J·(R−1)+1 provisioning
// candidates: ~9.8k at 2k machines, ~89.6k at 10k). ns/op is the headline
// number the provisioning fast path is gated on (advisory, -tol percent);
// the plan's objective value is republished as a semantic metric so any
// change to planner *output* is pinned bit for bit.
func benchPlan(b *testing.B, machines int) {
	b.Helper()
	cluster := corral.ClusterConfig{
		Racks: machines / 40, MachinesPerRack: 40, SlotsPerMachine: 2,
		NICBandwidth: 10e9 / 8, Oversubscription: 5,
	}
	jobs := corral.W1(corral.WorkloadConfig{
		Seed: 1, Jobs: 160 + machines/50,
		Scale: 1.0 / 8, TaskScale: 1.0 / 8,
		ArrivalWindow: float64(machines) / 20,
	})
	b.ResetTimer()
	var plan *corral.Plan
	for i := 0; i < b.N; i++ {
		var err error
		plan, err = corral.PlanOnline(cluster, jobs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plan.AvgCompletion, "plan_objective_s")
}

func BenchmarkPlan2k(b *testing.B)  { benchPlan(b, 2000) }
func BenchmarkPlan10k(b *testing.B) { benchPlan(b, 10000) }

// BenchmarkScaleSweep runs the datacenter-scale fast-path suite end to end
// (size s: the 2000-machine cell with its determinism and snapshot/resume
// verification) and republishes its semantic outcomes. The wallclock_* keys
// are deliberately not republished: corralbench -compare gates on semantic
// metrics only, and host timing lives in the ns/op column.
func BenchmarkScaleSweep(b *testing.B) {
	benchExperiment(b, "scale",
		"machines_2000_events", "machines_2000_makespan", "machines_2000_jobs",
		"machines_2000_plan_objective", "cells", "verification_failures")
}
