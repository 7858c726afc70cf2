// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 motivation plots, §4 planner quality/scaling, §6
// cluster/simulation results). Each experiment is a pure function from
// Params to a Report, shared by the corralsim CLI, the reproduction gate
// in the repository root (TestReportGolden), and the integration tests.
//
// Simulations run at a configurable Size. Absolute seconds differ from the
// paper (the workloads are byte- and task-scaled to keep runs fast); the
// reproduction target is the shape: who wins, by what rough factor, where
// trends cross.
//
// Determinism obligations: every Report is a pure function of Params
// (including Params.Seed) — reruns reproduce every metric bit for bit,
// which TestBatchDeterminism enforces. The only wall-clock reads are the
// annotated planner-running-time measurements for Fig 5.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"corral/internal/job"
	"corral/internal/metrics"
	"corral/internal/model"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/workload"
)

// Size selects the experiment scale.
type Size int

// Experiment scales.
const (
	// SizeS is for unit tests: a toy cluster, seconds of wall time.
	SizeS Size = iota
	// SizeM is the default for benchmarks and the CLI: a scaled-down
	// 7-rack cluster preserving the paper's structural ratios.
	SizeM
	// SizeL approaches the paper's job counts; minutes of wall time.
	SizeL
)

// Params configures an experiment run.
type Params struct {
	Size Size
	Seed int64
}

// Report is an experiment's output: human-readable tables plus named
// numeric outcomes for tests and EXPERIMENTS.md.
type Report struct {
	Name   string
	Tables []*metrics.Table
	Values map[string]float64
	keys   []string // insertion order of Values
}

func newReport(name string) *Report {
	return &Report{Name: name, Values: map[string]float64{}}
}

func (r *Report) set(key string, v float64) {
	if _, ok := r.Values[key]; !ok {
		r.keys = append(r.keys, key)
	}
	r.Values[key] = v
}

func (r *Report) table(t *metrics.Table) { r.Tables = append(r.Tables, t) }

// Keys returns the outcome keys in insertion order.
func (r *Report) Keys() []string { return append([]string(nil), r.keys...) }

// String renders all tables.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n", r.Name)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Func is an experiment entry point.
type Func func(Params) (*Report, error)

// Registry maps experiment IDs to their functions, in the paper's order.
func Registry() []struct {
	ID   string
	Desc string
	Run  Func
} {
	return []struct {
		ID   string
		Desc string
		Run  Func
	}{
		{"fig1", "recurring-job input sizes and predictability (§2, Fig 1)", Fig1},
		{"fig2", "CDF of slots requested per job (§2, Fig 2)", Fig2},
		{"table1", "W3 workload characteristics (Table 1)", Table1},
		{"lpgap", "heuristic vs LP relaxation gap (§4.2)", LPGap},
		{"fig5", "offline planner running time vs #jobs (Fig 5)", Fig5},
		{"fig6", "batch makespan reduction vs Yarn-CS (Fig 6)", Fig6},
		{"fig7a", "cross-rack data reduction (Fig 7a)", Fig7a},
		{"fig7b", "compute-hours reduction (Fig 7b)", Fig7b},
		{"fig7c", "CDF of average reduce time, W1 batch (Fig 7c)", Fig7c},
		{"fig8", "online completion-time CDFs (Fig 8)", Fig8},
		{"fig9", "online avg job time reduction by size bin (Fig 9)", Fig9},
		{"fig10", "TPC-H query completion times (Fig 10)", Fig10},
		{"fig11", "mixed recurring + ad hoc jobs (Fig 11)", Fig11},
		{"fig12", "benefit vs background traffic (Fig 12)", Fig12},
		{"fig13a", "robustness to input-size error (Fig 13a)", Fig13a},
		{"fig13b", "robustness to arrival-time error (Fig 13b)", Fig13b},
		{"fig14", "job schedulers x flow schedulers, large sim (Fig 14)", Fig14},
		{"balance", "input data balance across racks (§6.2)", Balance},
		{"ablation-alpha", "ablation: data-imbalance penalty on/off (§4.5)", AblationAlpha},
		{"ablation-provision", "ablation: provisioning stopping rule (§4.2)", AblationProvision},
		{"ablation-priority", "ablation: widest-job-first vs plain LPT", AblationPriority},
		{"ablation-delay", "ablation: delay-scheduling patience (Yarn-CS)", AblationDelay},
		{"ext-remote", "extension: inputs in a remote storage cluster (§7)", ExtRemoteStorage},
		{"ext-inmemory", "extension: Spark-like in-memory data (§7)", ExtInMemory},
		{"ext-failures", "extension: mid-run machine failures (§3.1/§7)", ExtFailures},
		{"ext-speculation", "extension: stragglers + speculative execution (§3.3)", ExtSpeculation},
		{"ext-replan", "extension: periodic replanning for late jobs (§3.1)", ExtReplan},
		{"ext-shared-data", "extension: shared datasets / data-job dependencies (§7)", ExtSharedData},
		{"chaos", "chaos: graceful degradation under machine + uplink fault traces", Chaos},
		{"overload", "overload: budgeted planning, storm suppression + admission control under arrival-rate sweeps", Overload},
		{"attrition", "attrition: task retries + blacklisting under rising crash rates", Attrition},
		{"fuzz", "corralcheck: randomized fault traces under the invariant monitor", Fuzz},
		{"resume", "resume: crash-resume equivalence of snapshotted runs", Resume},
		{"scale", "scale: online W1 at 2k-10k machines, each cell verified by a same-seed rerun and snapshot/resume", Scale},
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Func, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// --- shared scale profiles -------------------------------------------------

const gbps = 1e9 / 8

// profile bundles the cluster and workload scaling for one Size.
type profile struct {
	topo      topology.Config
	scale     float64 // workload byte scale
	taskScale float64 // W1 task-count scale
	w1Jobs    int
	w2Jobs    int
	w3Jobs    int
	tpchJobs  int
	arrival   float64 // online arrival window, seconds
	bgFrac    float64 // background as a fraction of rack uplink
}

func profileFor(size Size) profile {
	switch size {
	case SizeS:
		return profile{
			topo: topology.Config{
				Racks: 5, MachinesPerRack: 4, SlotsPerMachine: 2,
				NICBandwidth: 10 * gbps, Oversubscription: 5,
			},
			scale: 1.0 / 20, taskScale: 1.0 / 20,
			w1Jobs: 21, w2Jobs: 40, w3Jobs: 16, tpchJobs: 5,
			arrival: 120, bgFrac: 0.5,
		}
	case SizeL:
		return profile{
			topo: topology.Config{
				Racks: 7, MachinesPerRack: 15, SlotsPerMachine: 8,
				NICBandwidth: 10 * gbps, Oversubscription: 5,
			},
			scale: 1.0 / 4, taskScale: 1.0 / 4,
			w1Jobs: 90, w2Jobs: 400, w3Jobs: 200, tpchJobs: 15,
			arrival: 2400, bgFrac: 0.5,
		}
	default: // SizeM
		return profile{
			topo: topology.Config{
				Racks: 7, MachinesPerRack: 8, SlotsPerMachine: 4,
				NICBandwidth: 10 * gbps, Oversubscription: 5,
			},
			scale: 1.0 / 8, taskScale: 1.0 / 8,
			w1Jobs: 45, w2Jobs: 120, w3Jobs: 60, tpchJobs: 10,
			arrival: 600, bgFrac: 0.5,
		}
	}
}

// withBackground returns the profile's topology with background traffic at
// the given fraction of the rack uplink.
func (p profile) withBackground(frac float64) topology.Config {
	t := p.topo
	t.BackgroundPerRack = frac * t.RackUplinkCapacity()
	return t
}

func (p profile) wcfg(seed int64, jobs int, window float64) workload.Config {
	return workload.Config{
		Scale: p.scale, Seed: seed, Jobs: jobs, ArrivalWindow: window,
		TaskScale: p.taskScale,
	}
}

// planJobs runs the offline planner for the given objective.
func planJobs(topo topology.Config, jobs []*job.Job, obj planner.Objective) (*planner.Plan, error) {
	var planned []*job.Job
	for _, j := range jobs {
		if !j.AdHoc {
			planned = append(planned, j)
		}
	}
	return planner.New(planner.Input{
		Cluster:   model.FromTopology(topo),
		Jobs:      planned,
		Alpha:     -1,
		Objective: obj,
	})
}

// runAll runs the same workload under every scheduler in kinds, planning
// once for the plan-driven schedulers. The plan goes to every kind;
// Yarn-CS and ShuffleWatcher ignore it.
func runAll(topo topology.Config, jobs []*job.Job, obj planner.Objective, seed int64, kinds ...runtime.Kind) (map[runtime.Kind]*runtime.Result, error) {
	var plan *planner.Plan
	if slices.Contains(kinds, runtime.Corral) || slices.Contains(kinds, runtime.LocalShuffle) {
		var err error
		if plan, err = planJobs(topo, jobs, obj); err != nil {
			return nil, err
		}
	}
	cells := make([]runtime.Options, len(kinds))
	for i, k := range kinds {
		cells[i] = runtime.Options{Cluster: topo, Scheduler: k, Plan: plan, Seed: seed}
	}
	results, err := runCells(cells, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[runtime.Kind]*runtime.Result, len(kinds))
	for i, k := range kinds {
		out[k] = results[i]
	}
	return out, nil
}

// runCells runs the same workload under each of cells, every run on its
// own clone of jobs, and returns result i for cells[i]. The runs fan out
// over the sweep worker pool (internal/pool), so cells may share a plan,
// which runs only read, but not a stateful netsim.Policy.
func runCells(cells []runtime.Options, jobs []*job.Job) ([]*runtime.Result, error) {
	results := make([]*runtime.Result, len(cells))
	if err := pool.For(len(cells), func(i int) error {
		res, err := runtime.Run(cells[i], workload.Clone(jobs))
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// completionTimes extracts per-job completion times filtered by a
// predicate (nil = all jobs).
func completionTimes(res *runtime.Result, keep func(*runtime.JobResult) bool) []float64 {
	var out []float64
	for i := range res.Jobs {
		if keep == nil || keep(&res.Jobs[i]) {
			out = append(out, res.Jobs[i].CompletionTime)
		}
	}
	sort.Float64s(out)
	return out
}

// percentileRows adds one row per reported percentile (p25, p50, p75,
// p90) to t: label(q), each series' percentile in seconds and, with
// withReduction, the last series' reduction against the first.
func percentileRows(t *metrics.Table, label func(q float64) string, withReduction bool, series ...[]float64) {
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		row := []string{label(q)}
		for _, s := range series {
			row = append(row, metrics.F(metrics.Percentile(s, q), 1))
		}
		if withReduction {
			first, last := metrics.Percentile(series[0], q), metrics.Percentile(series[len(series)-1], q)
			row = append(row, metrics.Pct(metrics.Reduction(first, last)))
		}
		t.AddRow(row...)
	}
}

// pLabel labels percentile q as p25, p50, ...
func pLabel(q float64) string { return fmt.Sprintf("p%d", int(q*100)) }

// allSchedulers lists Yarn-CS, the baseline, first.
var allSchedulers = []runtime.Kind{runtime.YarnCS, runtime.Corral, runtime.LocalShuffle, runtime.ShuffleWatcher}
