package experiments

// Extension experiments covering the paper's §7 discussion topics and the
// runtime features the §3.3 model abstracts away (failures, outliers).
// These have no paper figure to match; they demonstrate that Corral's
// benefits persist (or degrade gracefully) outside the core evaluation.

import (
	"fmt"
	"math/rand"
	"sort"

	"corral/internal/datadeps"
	"corral/internal/metrics"
	"corral/internal/model"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/workload"
)

// ExtRemoteStorage reproduces the §7 "Remote storage" scenario: inputs
// live in a separate storage cluster (Azure Storage / S3) behind a shared
// interconnect. Corral cannot pre-place input data, but still isolates
// shuffles and reduces.
func ExtRemoteStorage(p Params) (*Report, error) {
	return extStorage(p, "Extension (§7): remote storage cluster",
		"W1 batch with inputs fetched from remote storage", true)
}

// ExtInMemory reproduces the §7 "In-memory systems" argument: even with
// Spark-like in-memory data (no replicated output writes), shuffles remain
// network-bound and Corral's locality still pays.
func ExtInMemory(p Params) (*Report, error) {
	return extStorage(p, "Extension (§7): in-memory data (Spark-like)",
		"W1 batch without replicated output writes", false)
}

// extStorage runs the W1 batch under Yarn-CS and Corral with inputs read
// from a remote storage cluster (remote) or with in-memory data (!remote).
func extStorage(p Params, name, title string, remote bool) (*Report, error) {
	r := newReport(name)
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)
	if remote {
		// Interconnect sized at twice one rack uplink: a shared bottleneck.
		topo.RemoteStorageBandwidth = 2 * prof.topo.RackUplinkCapacity()
	}
	jobs := genWorkload("W1", prof, p.Seed, 0)
	plan, err := planJobs(topo, jobs, planner.MinimizeMakespan)
	if err != nil {
		return nil, err
	}
	kinds := []runtime.Kind{runtime.YarnCS, runtime.Corral}
	cells := make([]runtime.Options, len(kinds))
	for i, k := range kinds {
		cells[i] = runtime.Options{
			Cluster: topo, Scheduler: k, Plan: plan, Seed: p.Seed,
			RemoteStorageInput: remote, InMemoryInput: !remote,
		}
	}
	results, err := runCells(cells, jobs)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   title,
		Columns: []string{"scheduler", "makespan (s)", "cross-rack GB"},
	}
	for i, k := range kinds {
		t.AddRow(k.String(), metrics.F(results[i].Makespan, 1), metrics.F(results[i].CrossRackBytes/1e9, 1))
	}
	r.table(t)
	r.set("makespan_reduction_pct", metrics.Reduction(results[0].Makespan, results[1].Makespan))
	r.set("crossrack_reduction_pct", metrics.Reduction(results[0].CrossRackBytes, results[1].CrossRackBytes))
	return r, nil
}

// ExtFailures measures Corral's behavior under cascading mid-run machine
// failures (§7 "Dealing with failures"): tasks re-execute, majority-dead
// rack sets fall back to unconstrained placement, and the batch still
// completes with bounded slowdown.
func ExtFailures(p Params) (*Report, error) {
	r := newReport("Extension (§3.1/§7): mid-run machine failures")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)
	jobs := genWorkload("W1", prof, p.Seed, 0)
	plan, err := planJobs(topo, jobs, planner.MinimizeMakespan)
	if err != nil {
		return nil, err
	}
	clean, err := runtime.Run(runtime.Options{
		Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: p.Seed,
	}, workload.Clone(jobs))
	if err != nil {
		return nil, err
	}
	// Kill 10% of machines, spread over the first half of the clean
	// makespan.
	var failures []runtime.Failure
	n := topo.Machines() / 10
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		failures = append(failures, runtime.Failure{
			At:      clean.Makespan / 2 * float64(i+1) / float64(n+1),
			Machine: i * topo.Machines() / n,
		})
	}
	failed, err := runtime.Run(runtime.Options{
		Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: p.Seed,
		Failures: failures,
	}, workload.Clone(jobs))
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   fmt.Sprintf("Corral, W1 batch, %d machines failing mid-run", n),
		Columns: []string{"run", "makespan (s)"},
	}
	t.AddRow("no failures", metrics.F(clean.Makespan, 1))
	t.AddRow("with failures", metrics.F(failed.Makespan, 1))
	r.table(t)
	r.set("makespan_clean", clean.Makespan)
	r.set("makespan_failed", failed.Makespan)
	r.set("slowdown_pct", -metrics.Reduction(clean.Makespan, failed.Makespan))
	return r, nil
}

// ExtSpeculation quantifies straggler injection (§3.3's "outliers") and
// the speculative-execution mitigation on the W1 batch under Corral.
func ExtSpeculation(p Params) (*Report, error) {
	r := newReport("Extension (§3.3): stragglers and speculative execution")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)
	jobs := genWorkload("W1", prof, p.Seed, 0)
	plan, err := planJobs(topo, jobs, planner.MinimizeMakespan)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title:   "Corral, W1 batch, 10% stragglers at 6x slowdown",
		Columns: []string{"configuration", "makespan (s)"},
	}
	configs := []struct {
		name           string
		fraction       float64
		speculate      bool
		keyForMakespan string
	}{
		{"no stragglers", 0, false, "makespan_clean"},
		{"stragglers, no speculation", 0.1, false, "makespan_stragglers"},
		{"stragglers + speculation", 0.1, true, "makespan_speculation"},
	}
	cells := make([]runtime.Options, len(configs))
	for i, c := range configs {
		cells[i] = runtime.Options{
			Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: p.Seed,
			StragglerFraction: c.fraction, Speculation: c.speculate,
		}
	}
	results, err := runCells(cells, jobs)
	if err != nil {
		return nil, err
	}
	for i, c := range configs {
		t.AddRow(c.name, metrics.F(results[i].Makespan, 1))
		r.set(c.keyForMakespan, results[i].Makespan)
	}
	r.table(t)
	return r, nil
}

// ExtReplan demonstrates §3.1's periodic replanning: a second wave of jobs
// becomes known mid-run. "replan" plans the first wave, then replans the
// second around commitments; "oracle" plans both waves upfront; Yarn-CS
// sees neither plan.
func ExtReplan(p Params) (*Report, error) {
	r := newReport("Extension (§3.1): periodic replanning for a late second wave")
	prof := profileFor(p.Size)
	topo := prof.withBackground(prof.bgFrac)

	wave1 := genWorkload("W1", prof, p.Seed, 0)
	wave2 := workload.Renumber(genWorkload("W1", prof, p.Seed+50, 0), len(wave1)+1)
	plan1, err := planJobs(topo, wave1, planner.MinimizeAvgCompletion)
	if err != nil {
		return nil, err
	}
	// The second wave arrives at half the first wave's planned makespan.
	at := plan1.Makespan / 2
	for _, j := range wave2 {
		j.Arrival = at
	}
	all := append(workload.Clone(wave1), workload.Clone(wave2)...)

	// Replanned: commitments from wave-1 assignments still running at t.
	// Assignments is a map; iterate its keys sorted so the commitment
	// order (and thus the replan's float accumulation order) is stable.
	ids := make([]int, 0, len(plan1.Assignments))
	for id := range plan1.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var commitments []planner.Commitment
	for _, id := range ids {
		if a := plan1.Assignments[id]; a.End() > at {
			commitments = append(commitments, planner.Commitment{Racks: a.Racks, Until: a.End()})
		}
	}
	in2 := planner.Input{
		Cluster:   model.FromTopology(topo),
		Jobs:      wave2,
		Alpha:     -1,
		Objective: planner.MinimizeAvgCompletion,
	}
	plan2, err := planner.Replan(in2, at, commitments)
	if err != nil {
		return nil, err
	}
	replanned := planner.MergePlans(plan1, plan2)

	// Oracle: both waves known upfront.
	oracle, err := planJobs(topo, all, planner.MinimizeAvgCompletion)
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{
		Title:   "two-wave workload: average completion time (seconds)",
		Columns: []string{"strategy", "avg completion (s)"},
	}
	results, err := runCells([]runtime.Options{
		{Cluster: topo, Scheduler: runtime.YarnCS, Seed: p.Seed},
		{Cluster: topo, Scheduler: runtime.Corral, Plan: replanned, Seed: p.Seed},
		{Cluster: topo, Scheduler: runtime.Corral, Plan: oracle, Seed: p.Seed},
	}, all)
	if err != nil {
		return nil, err
	}
	for i, row := range []struct{ name, key string }{
		{"yarn-cs (no plan)", "avg_yarn"},
		{"corral, replanned", "avg_replan"},
		{"corral, oracle plan", "avg_oracle"},
	} {
		t.AddRow(row.name, metrics.F(results[i].AvgCompletionTime(), 1))
		r.set(row.key, results[i].AvgCompletionTime())
	}
	r.table(t)
	return r, nil
}

// ExtSharedData demonstrates the §7 "Data-job dependencies" extension:
// when datasets are shared by multiple jobs, the dataset-aware fractional
// placement (datadeps) reduces cross-rack input reads versus the paper's
// default one-dataset-per-job assumption and versus uniform spreading.
func ExtSharedData(p Params) (*Report, error) {
	r := newReport("Extension (§7): data-job dependencies (shared datasets)")
	prof := profileFor(p.Size)
	rng := rand.New(rand.NewSource(p.Seed + 77))

	// Jobs planned as usual; then datasets shared among them.
	jobs := genWorkload("W1", prof, p.Seed, 0)
	plan, err := planJobs(prof.topo, jobs, planner.MinimizeMakespan)
	if err != nil {
		return nil, err
	}
	in := datadeps.Input{
		Racks:    prof.topo.Racks,
		JobRacks: map[int][]int{},
	}
	for _, j := range jobs {
		in.JobRacks[j.ID] = plan.Assignments[j.ID].Racks
	}
	nDatasets := len(jobs) / 3
	if nDatasets < 2 {
		nDatasets = 2
	}
	for d := 1; d <= nDatasets; d++ {
		in.Datasets = append(in.Datasets, datadeps.Dataset{ID: d, Bytes: 1})
	}
	for _, j := range jobs {
		// Each job reads 1-3 shared datasets, splitting its input bytes.
		k := rng.Intn(3) + 1
		for x := 0; x < k; x++ {
			in.Reads = append(in.Reads, datadeps.Read{
				DatasetID: rng.Intn(nDatasets) + 1,
				JobID:     j.ID,
				Bytes:     j.InputBytes() / float64(k),
			})
		}
	}
	smart, err := datadeps.Place(in)
	if err != nil {
		return nil, err
	}
	smartGB := datadeps.CrossRackReadBytes(in, smart) / 1e9
	perJobGB := datadeps.CrossRackReadBytes(in, datadeps.PerJobPlacement(in)) / 1e9
	uniformGB := datadeps.CrossRackReadBytes(in, datadeps.UniformPlacement(in)) / 1e9

	t := &metrics.Table{
		Title:   "cross-rack input reads for shared datasets (GB)",
		Columns: []string{"placement", "cross-rack GB"},
	}
	t.AddRow("uniform (HDFS random)", metrics.F(uniformGB, 2))
	t.AddRow("per-job (paper default)", metrics.F(perJobGB, 2))
	t.AddRow("dataset-aware LP (§7)", metrics.F(smartGB, 2))
	r.table(t)
	r.set("crossrack_gb_uniform", uniformGB)
	r.set("crossrack_gb_perjob", perJobGB)
	r.set("crossrack_gb_shared", smartGB)
	return r, nil
}
