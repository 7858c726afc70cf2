// Package corral is a from-scratch reproduction of "Network-Aware
// Scheduling for Data-Parallel Jobs: Plan When You Can" (Jalaparti et al.,
// SIGCOMM 2015) — the Corral scheduling framework — together with every
// substrate its evaluation needs: a discrete-event cluster simulator with
// a flow-level network model (max-min fair "TCP" and a Varys-style coflow
// scheduler), an HDFS-like replicated block store, a YARN-like capacity
// scheduler with delay scheduling, the ShuffleWatcher and LocalShuffle
// baselines, the paper's workload generators, the LP relaxation lower
// bound, and a harness regenerating every table and figure.
//
// # Quick start
//
//	cluster := corral.DefaultCluster()
//	jobs := corral.W1(corral.WorkloadConfig{Seed: 1, Jobs: 20, Scale: 0.05})
//	plan, _ := corral.PlanBatch(cluster, jobs)
//	res, _ := corral.Simulate(corral.SimConfig{
//		Cluster:   cluster,
//		Scheduler: corral.SchedulerCorral,
//		Plan:      plan,
//	}, jobs)
//	fmt.Println(res.Makespan)
//
// See the package's Example functions for runnable programs and
// cmd/corralsim for the experiment harness.
package corral

import (
	"corral/internal/experiments"
	"corral/internal/invariants"
	"corral/internal/job"
	"corral/internal/lp"
	"corral/internal/model"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/snapshot"
	"corral/internal/topology"
	"corral/internal/trace"
	"corral/internal/workload"
)

// ClusterConfig describes the simulated cluster: racks, machines, slots,
// NIC bandwidth (bytes/sec), rack-to-core oversubscription and background
// core traffic.
type ClusterConfig = topology.Config

// DefaultCluster returns the paper's evaluation cluster: 7 racks x 30
// machines, 8 slots each, 10 Gbps NICs at 5:1 oversubscription.
func DefaultCluster() ClusterConfig {
	return ClusterConfig{
		Racks:            7,
		MachinesPerRack:  30,
		SlotsPerMachine:  8,
		NICBandwidth:     10e9 / 8,
		Oversubscription: 5,
	}
}

// Job is a (possibly DAG-structured) data-parallel job.
type Job = job.Job

// Profile is the per-stage 5-tuple ⟨D^I, D^S, D^O, N^M, N^R⟩ plus task
// processing rates (§4.3).
type Profile = job.Profile

// Stage is one vertex of a job DAG.
type Stage = job.Stage

// NewMapReduce builds a single-stage MapReduce job.
func NewMapReduce(id int, name string, p Profile) *Job {
	return job.MapReduce(id, name, p)
}

// Plan is the offline planner's output: {R_j, p_j, T_j} per job.
type Plan = planner.Plan

// Assignment is one job's planned rack set, priority and start time.
type Assignment = planner.Assignment

// PlanBatch runs Corral's offline planner minimizing makespan (§4.1 batch
// scenario) with the paper's default data-imbalance penalty. Ad-hoc jobs
// in the list are skipped — the planner cannot see them (§3.1); they run
// on otherwise-idle resources at execution time.
func PlanBatch(cluster ClusterConfig, jobs []*Job) (*Plan, error) {
	return planner.New(planner.Input{
		Cluster:   model.FromTopology(cluster),
		Jobs:      plannable(jobs),
		Alpha:     -1,
		Objective: planner.MinimizeMakespan,
	})
}

// PlanOnline runs the offline planner minimizing average completion time
// (§4.1 online scenario; jobs carry arrival times). Ad-hoc jobs are
// skipped, as in PlanBatch.
func PlanOnline(cluster ClusterConfig, jobs []*Job) (*Plan, error) {
	return planner.New(planner.Input{
		Cluster:   model.FromTopology(cluster),
		Jobs:      plannable(jobs),
		Alpha:     -1,
		Objective: planner.MinimizeAvgCompletion,
	})
}

func plannable(jobs []*Job) []*Job {
	out := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		// A nil job stays in, for the planner's validation to reject.
		if j == nil || !j.AdHoc {
			out = append(out, j)
		}
	}
	return out
}

// Scheduler selects the cluster scheduling policy.
type Scheduler = runtime.Kind

// The four evaluated schedulers (§6.1).
const (
	SchedulerYarnCS         = runtime.YarnCS
	SchedulerCorral         = runtime.Corral
	SchedulerLocalShuffle   = runtime.LocalShuffle
	SchedulerShuffleWatcher = runtime.ShuffleWatcher
)

// FlowPolicy allocates link bandwidth among flows.
type FlowPolicy = netsim.Policy

// TCP returns a fresh max-min fair sharing policy, the paper's TCP
// emulation (§6.6) and the one SimConfig.Network == nil selects. It
// re-waterfills only the parts of the network whose flows or link
// capacities changed since the previous allocation. The policy caches
// state between allocations: simulations run one after another may share
// an instance, simulations running concurrently may not.
func TCP() FlowPolicy { return netsim.NewIncrementalMaxMin() }

// TCPIncremental returns TCP().
//
// Deprecated: use TCP.
func TCPIncremental() FlowPolicy { return TCP() }

// VarysCoflow returns the Varys-style coflow scheduler (SEBF + MADD with
// work-conserving backfill), used in the Fig 14 comparison. It is
// stateless and may be shared, also across concurrent simulations.
func VarysCoflow() FlowPolicy { return netsim.Varys{} }

// SimConfig configures one simulated execution: the cluster, scheduler,
// plan and flow policy, fault and overload injection, and the observer
// hooks. Cluster is the only required field; Corral and LocalShuffle also
// need Plan. Every field is documented on runtime.Options, which this
// aliases.
type SimConfig = runtime.Options

// Failure kills one machine at a point in simulated time; Downtime > 0
// makes it transient.
type Failure = runtime.Failure

// LinkFault fails or rescales one rack's uplink/downlink pair at a point
// in simulated time (Factor 0 = outage, 1 = full capacity).
type LinkFault = runtime.LinkFault

// AMFailure kills one job's application master at a point in simulated
// time.
type AMFailure = runtime.AMFailure

// Corruption silently corrupts one DFS replica on a machine at a point
// in simulated time.
type Corruption = runtime.Corruption

// InvariantProbe observes a run's trace events (SimConfig.Probe);
// InvariantEvent is one such event.
type (
	InvariantProbe = trace.Observer
	InvariantEvent = trace.Event
)

// InvariantMonitor checks runtime lifecycle invariants (slot
// conservation, no attempts on dead or blacklisted machines, job
// terminality, feasible link rates, DFS byte accounting) as a run
// streams events into it.
type InvariantMonitor = invariants.Monitor

// NewInvariantMonitor builds a monitor for a cluster of the given shape;
// pass it as SimConfig.Probe and inspect Violations afterwards.
func NewInvariantMonitor(cluster ClusterConfig) *InvariantMonitor {
	return invariants.NewMonitor(cluster.Machines(), cluster.SlotsPerMachine)
}

// Result is a simulation outcome.
type Result = runtime.Result

// JobResult is one job's outcome within a Result.
type JobResult = runtime.JobResult

// Simulate executes the jobs on the simulated cluster and returns per-job
// and aggregate metrics.
func Simulate(cfg SimConfig, jobs []*Job) (*Result, error) {
	return runtime.Run(cfg, jobs)
}

// Snapshot is a versioned, deterministic serialization of a complete
// mid-flight simulation: the full run input (Spec), the capture point
// (Meta) and a deep export of all observable state (State). See
// internal/snapshot for the schema and restore-audit contract.
type Snapshot = snapshot.Snapshot

// CheckpointTarget names a point to snapshot at: after EventIndex fired
// events (when > 0), otherwise at the first event boundary reaching
// SimTime.
type CheckpointTarget = runtime.CheckpointTarget

// ResumeOptions reattaches the observers (invariant probe, tracer) that a
// snapshot deliberately excludes.
type ResumeOptions = runtime.ResumeOptions

// CaptureSnapshot runs the simulation until the target and returns the
// snapshot captured there, tearing the run down immediately after. A
// target the run never reaches is an error naming it.
func CaptureSnapshot(cfg SimConfig, jobs []*Job, target CheckpointTarget) (*Snapshot, error) {
	return runtime.CaptureAt(cfg, jobs, target)
}

// ResumeSnapshot reconstitutes a snapshotted run and continues it to
// completion. The runtime is rebuilt from the snapshot's Spec,
// deterministically replayed to the capture point, audited field-by-field
// against the snapshot's State (any mismatch is a hard error and an
// invariant violation), and then run to the end. A resumed run's Result
// and trace are bit-identical to the uninterrupted run's.
func ResumeSnapshot(snap *Snapshot, ro ResumeOptions) (*Result, error) {
	return runtime.Resume(snap, ro)
}

// EncodeSnapshot serializes a snapshot to its canonical, checksummed byte
// form; equal snapshots encode to equal bytes.
func EncodeSnapshot(s *Snapshot) ([]byte, error) { return snapshot.Encode(s) }

// DecodeSnapshot parses a snapshot, rejecting unknown versions, corrupted
// sections and schema drift with a clear error — never a partial restore.
func DecodeSnapshot(data []byte) (*Snapshot, error) { return snapshot.Decode(data) }

// Tracer records one run's deterministic simulation-time event stream
// (task lifecycle, machine state, flows, link utilization, DFS activity,
// planner decisions). A nil *Tracer is valid everywhere and disables
// tracing at zero cost.
type Tracer = trace.Tracer

// TraceCollector aggregates the tracers of every run in a process and
// exports them — in an order independent of execution interleaving — as
// flat JSONL (WriteJSONL) or Chrome trace-event JSON loadable in Perfetto
// (WriteChrome).
type TraceCollector = trace.Collector

// NewTraceCollector returns an empty collector; register runs with NewRun
// or install it process-wide with InstallTraceCollector.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// InstallTraceCollector makes c the process-wide collector that Simulate,
// PlanBatch, PlanOnline and Replan register their runs with when no
// explicit Tracer is configured. Install(nil) disables implicit tracing
// again.
func InstallTraceCollector(c *TraceCollector) { trace.Install(c) }

// Commitment reserves racks until an expected completion time during a
// replan (§3.1 periodic replanning).
type Commitment = planner.Commitment

// Replan reruns the offline planner at time now for pending jobs while
// honoring commitments from in-flight work (§3.1: "the offline planner
// will periodically receive updated estimates ... and update the
// guidelines"). Objective: average completion time.
func Replan(cluster ClusterConfig, jobs []*Job, now float64, commitments []Commitment) (*Plan, error) {
	return planner.Replan(planner.Input{
		Cluster:   model.FromTopology(cluster),
		Jobs:      plannable(jobs),
		Alpha:     -1,
		Objective: planner.MinimizeAvgCompletion,
	}, now, commitments)
}

// MergePlans overlays a replan onto an existing plan; see planner.MergePlans.
func MergePlans(prev, next *Plan) *Plan { return planner.MergePlans(prev, next) }

// WorkloadConfig parameterises the workload generators.
type WorkloadConfig = workload.Config

// W1 generates the Quantcast-derived workload (§6.1).
func W1(cfg WorkloadConfig) []*Job { return workload.W1(cfg) }

// W2 generates the SWIM/Yahoo-derived skewed workload (§6.1).
func W2(cfg WorkloadConfig) []*Job { return workload.W2(cfg) }

// W3 generates the Microsoft Cosmos-derived workload (Table 1).
func W3(cfg WorkloadConfig) []*Job { return workload.W3(cfg) }

// TPCH generates Hive-style TPC-H DAG queries over a database of dbBytes
// (0 selects 200 GB, §6.3).
func TPCH(cfg WorkloadConfig, dbBytes float64) []*Job {
	return workload.TPCH(cfg, dbBytes)
}

// CloneJobs deep-copies a job list.
func CloneJobs(jobs []*Job) []*Job { return workload.Clone(jobs) }

// MarkAdHoc flags jobs as unplannable ad-hoc work (§6.4).
func MarkAdHoc(jobs []*Job) []*Job { return workload.MarkAdHoc(jobs) }

// LatencyModel exposes the §4.3 response functions for a cluster.
type LatencyModel = model.Cluster

// NewLatencyModel derives the analytic latency model from a cluster
// config.
func NewLatencyModel(cluster ClusterConfig) LatencyModel {
	return model.FromTopology(cluster)
}

// BatchLowerBound returns the exact LP-Batch relaxation optimum (Appendix
// A): a makespan no rack-granular schedule can beat.
func BatchLowerBound(cluster ClusterConfig, jobs []*Job) float64 {
	return lp.BatchLowerBound(model.FromTopology(cluster), jobs, -1)
}

// OnlineLowerBound returns a lower bound on average completion time for
// the online scenario.
func OnlineLowerBound(cluster ClusterConfig, jobs []*Job) float64 {
	return lp.OnlineLowerBound(model.FromTopology(cluster), jobs, -1)
}

// ExperimentSize selects the scale of a reproduction experiment.
type ExperimentSize = experiments.Size

// Experiment scales: small (tests), medium (default), large (closest to
// the paper's job counts).
const (
	SizeSmall  = experiments.SizeS
	SizeMedium = experiments.SizeM
	SizeLarge  = experiments.SizeL
)

// ExperimentReport holds an experiment's tables and key numeric outcomes.
type ExperimentReport = experiments.Report

// RunExperiment regenerates one of the paper's tables or figures by ID
// (e.g. "fig6", "table1"; see Experiments for the full list).
func RunExperiment(id string, size ExperimentSize, seed int64) (*ExperimentReport, error) {
	f, ok := experiments.Lookup(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return f(experiments.Params{Size: size, Seed: seed})
}

// Experiments lists the available experiment IDs and descriptions in the
// paper's order.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.Registry() {
		out = append(out, ExperimentInfo{ID: e.ID, Description: e.Desc})
	}
	return out
}

// ExperimentInfo names one reproducible table or figure.
type ExperimentInfo struct {
	ID          string
	Description string
}

// GenChaosTrace builds a seeded fault trace — transient machine failures
// plus rack-uplink degradation windows — for the given cluster. The trace
// is a pure function of the arguments and never removes capacity
// permanently: every uplink fault is paired with a restore, every machine
// failure with a recovery.
func GenChaosTrace(cluster ClusterConfig, seed int64, intensity, horizon float64) ([]Failure, []LinkFault) {
	return experiments.GenChaosTrace(cluster, seed, intensity, horizon)
}

// RunFuzzExperiment renders a corralcheck sweep as an ExperimentReport;
// traces <= 0 selects the bundled default trace count.
func RunFuzzExperiment(size ExperimentSize, seed int64, traces int) (*ExperimentReport, error) {
	if traces <= 0 {
		traces = experiments.DefaultFuzzTraces
	}
	return experiments.FuzzWithTraces(experiments.Params{Size: size, Seed: seed}, traces)
}

// Degradations counts which planner-fallback tiers a budgeted run took
// (full plan / incremental replan / greedy placement).
type Degradations = runtime.Degradations

// PlannerCostFull returns the simulated latency charged for a full
// two-phase plan over jobs jobs, racks racks and stages total stages —
// the deterministic cost model SimConfig.PlannerBudget is compared
// against when choosing a fallback tier. Use it to size budgets.
func PlannerCostFull(jobs, racks, stages int) float64 {
	return planner.CostFull(jobs, racks, stages)
}

// PlannerCostIncremental returns the simulated latency charged for a
// commitments-only incremental replan (the middle fallback tier).
func PlannerCostIncremental(jobs, racks, stages int) float64 {
	return planner.CostIncremental(jobs, racks, stages)
}

// CaptureScenarioSnapshot captures the crash-resume scenario run for
// (size, seed) — the corral-replan fuzz configuration — at the given
// target. This is what corralsim -snapshot-at writes and what the
// canned corpus under internal/experiments/testdata is built from.
func CaptureScenarioSnapshot(size ExperimentSize, seed int64, target CheckpointTarget) (*Snapshot, error) {
	return experiments.ScenarioSnapshot(size, seed, target)
}

// SetSweepWorkers bounds the worker pool experiment sweeps (chaos
// intensities, fuzz traces, sensitivity points, ablation cells) and the
// planner's provisioning search fan out over. n <= 0 restores the default
// (GOMAXPROCS); 1 forces serial execution. The worker count changes
// wall-clock time only — results are bit-identical for any value.
func SetSweepWorkers(n int) { pool.SetWorkers(n) }

// UnknownExperimentError reports an unrecognized experiment ID.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "corral: unknown experiment " + e.ID
}
