// Package runtime executes data-parallel jobs on the simulated cluster:
// it is the YARN-analogue resource manager plus per-job application
// masters, driving map tasks, shuffles, reduces and replicated output
// writes over the flow-level network simulator.
//
// Four scheduling policies are implemented, matching §6.1's comparison:
//
//   - YarnCS: the capacity scheduler baseline — FIFO job order with slot
//     backfill and delay scheduling for map locality; reducers go anywhere.
//   - Corral: the planner's {R_j, p_j} guidelines — input data pre-placed
//     in R_j, all tasks constrained to R_j, jobs picked by priority.
//   - LocalShuffle: Corral's task placement but HDFS-random data placement.
//   - ShuffleWatcher: per-job shuffle localisation to a rack subset chosen
//     greedily per job (no cross-job planning, no data placement).
//
// Determinism obligations: a simulation Result is a pure function of
// (SimConfig, jobs, seed). All randomness (data placement, failure and
// straggler injection) draws from one seeded *rand.Rand, slot and task
// scans go in index order, and order-sensitive work never ranges over a
// map unsorted (see the collect-and-sort idiom in exec.go).
//
// Task queues: each stage keeps its pending map tasks' locality
// preferences in two compact indexes (locality.go), one keyed by machine
// and one by rack: sorted int32 keys, one range per key, and one
// pointer-free backing array of task indexes, laid out exact-sized when
// the stage starts or an application master restarts. A pop is a binary
// search plus a LIFO walk and allocates nothing.
//
// Attempt lifecycle: a task attempt (runningTask, failures.go) steps
// through fetch, compute and write. A map reads its input split (one flow,
// or none when the read is node-local) and computes; a reduce shuffles one
// flow per source rack plus a zero-byte loopback, computes and, in a
// terminal stage, writes two remote replicas. When the last flow of a
// phase lands or the compute timer fires, the attempt's step method moves
// it on. All flows of an attempt share one completion callback, and all
// its timers (crash, speculation watchdog, compute end) one firing
// callback, both bound once per attempt object: no closure per flow or
// phase. Finish and abort retire the attempt onto a free list that the
// next launch takes from, once its timers are canceled and it owns no
// flow. A canceled event never fires and a canceled flow never reports,
// not even one its recompute already found complete, so no callback
// reaches a retired attempt; flowDone and timerFired panic if one does.
//
// Observation: a run has one event stream. Each lifecycle point (job,
// attempt, machine, AM, replan, admission, audit, end of run) is emitted
// once, as a trace.Event into the run's tracer. Options.Probe observes
// that stream through trace.Observed — the invariant monitor is such an
// observer — so probing needs no hooks of its own and costs nothing when
// neither a tracer nor a probe is attached.
package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"corral/internal/des"
	"corral/internal/dfs"
	"corral/internal/job"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/topology"
	"corral/internal/trace"
)

// Kind selects the cluster scheduling policy.
type Kind int

// The four evaluated schedulers.
const (
	YarnCS Kind = iota
	Corral
	LocalShuffle
	ShuffleWatcher
)

func (k Kind) String() string {
	switch k {
	case YarnCS:
		return "yarn-cs"
	case Corral:
		return "corral"
	case LocalShuffle:
		return "local-shuffle"
	case ShuffleWatcher:
		return "shufflewatcher"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind is the inverse of Kind.String, used when reconstructing a run
// from a serialized snapshot spec.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "yarn-cs":
		return YarnCS, nil
	case "corral":
		return Corral, nil
	case "local-shuffle":
		return LocalShuffle, nil
	case "shufflewatcher":
		return ShuffleWatcher, nil
	}
	return 0, fmt.Errorf("runtime: unknown scheduler %q", s)
}

// Fixed YARN/HDFS parameters. Corral changes only where tasks are placed
// (§5), so the rest of the stack runs with one setting each: the stock
// default where YARN has one, a modelling choice otherwise (DESIGN.md,
// "Retry & attrition model"). Snapshot specs still record each value, and
// Resume restores no other.
const (
	// heartbeat is the scheduler retry interval in seconds when jobs
	// decline slots waiting for locality (the delay-scheduling "wait").
	heartbeat = 1.0
	// adhocShare is the capacity-scheduler queue share for ad-hoc jobs
	// under the plan-driven schedulers: when the ad-hoc queue is running
	// less than this fraction of all busy slots, a freed slot is offered
	// to ad-hoc jobs first (work-conserving both ways). Yarn-CS and
	// ShuffleWatcher ignore it (single FIFO queue).
	adhocShare = 0.5
	// maxTaskAttempts is the per-task attempt budget (YARN's
	// mapreduce.map/reduce.maxattempts). A task that crashes this many
	// times fails its job terminally (JobResult.Failed).
	maxTaskAttempts = 4
	// retryBackoff is the base retry delay in seconds: a task's k-th
	// crash waits retryBackoff·2^(k−1) before the task re-enters the
	// pending queues.
	retryBackoff = 1.0
	// blacklistThreshold is how many failed attempts a machine
	// accumulates before it is blacklisted out of the slot pool and
	// delay-scheduling consideration (YARN's node-blacklisting
	// threshold, mapreduce.job.maxtaskfailures.per.tracker).
	blacklistThreshold = 3
	// blacklistCooldown is how long in seconds a blacklisted machine sits
	// out. It rejoins with its failure count reset.
	blacklistCooldown = 30.0
	// maxAMAttempts caps application-master attempts per job (YARN's
	// yarn.resourcemanager.am.max-attempts): the maxAMAttempts-th AM
	// failure fails the job terminally.
	maxAMAttempts = 2
	// amRestartDelay is the resource-manager relaunch delay in seconds
	// between an AM failure and the restarted attempt.
	amRestartDelay = 5.0
	// maxReplansPerWindow caps immediate replans per replan-storm
	// suppression window (Options.ReplanWindow).
	maxReplansPerWindow = 1
	// stragglerSlowdown is how many times slower a straggling compute
	// phase runs (the "outliers" of §3.3).
	stragglerSlowdown = 6.0
	// speculationThreshold is the multiple of its expected duration a
	// straggler runs before the speculation watchdog relaunches it. It is
	// below stragglerSlowdown, so the watchdog of a straggler fires unless
	// the attempt is aborted first.
	speculationThreshold = 2.0
)

// outputReplicas is the replica count of terminal stage outputs: one
// local replica plus two on a remote rack, or only the local copy for
// InMemoryInput runs, which skip the write pipeline.
func outputReplicas(inMemory bool) int {
	if inMemory {
		return 1
	}
	return 3
}

// Options configures one simulated run; the public API exports it as
// corral.SimConfig.
type Options struct {
	// Cluster is the simulated cluster's shape.
	Cluster topology.Config
	// Network is the bandwidth-sharing policy; nil selects a fresh max-min
	// fair allocator (netsim.IncrementalMaxMin, the TCP emulation).
	Network netsim.Policy
	// Scheduler selects the policy; Corral and LocalShuffle require Plan.
	Scheduler Kind
	Plan      *planner.Plan
	Seed      int64
	// BlockSize for the DFS; 0 selects the default (256 MB).
	BlockSize float64
	// DelayNodeLocal / DelayRackLocal are delay-scheduling patience
	// thresholds, in skipped scheduling opportunities, before a job's map
	// tasks may run rack-local / anywhere. Zero selects defaults scaled to
	// the cluster size.
	DelayNodeLocal int
	DelayRackLocal int
	// Failures kills machines at points in simulated time: running tasks
	// on a failed machine are aborted and re-executed elsewhere, and
	// planned jobs whose rack sets lose a majority of machines fall back
	// to unconstrained placement (§3.1). A Failure with Downtime > 0 is
	// transient: the machine recovers at At+Downtime.
	Failures []Failure
	// LinkFaults rescale rack uplink/downlink capacities at simulated
	// times (factor 0 = failed, 1 = restored). A permanent uplink failure
	// can wedge jobs whose transfers must cross it; fault traces should
	// always restore failed links eventually (chaos traces do).
	LinkFaults []LinkFault
	// ReplanOnFailure makes Corral re-invoke the offline planner when a
	// planned job loses its racks (majority machine loss or uplink
	// failure), with commitments for unaffected running jobs, instead of
	// only dropping the affected job's constraints (replan.go).
	ReplanOnFailure bool
	// StragglerFraction is the probability that a task's compute phase is
	// a straggler, running stragglerSlowdown (6) times slower — the
	// "outliers" of §3.3. Zero disables injection.
	StragglerFraction float64
	// Speculation enables the speculative-execution watchdog: a task
	// running longer than speculationThreshold (2) times its expected
	// duration is relaunched.
	Speculation bool
	// FailedMachines are dead from time zero: no slots, and DFS replicas
	// on them are unreadable. If more than half the machines of a planned
	// job's rack set are dead, Corral drops the job's placement
	// constraints (§3.1).
	FailedMachines []int
	// RemoteStorageInput makes every job read its input from the separate
	// storage cluster over the shared interconnect (§2's Azure/S3
	// scenario, §7 "Remote storage") instead of from pre-placed DFS
	// blocks. Requires Cluster.RemoteStorageBandwidth > 0.
	RemoteStorageInput bool
	// InMemoryInput models Spark-like in-memory data (§7 "In-memory
	// systems"): terminal outputs are not written through the replicated
	// DFS pipeline, removing write traffic while shuffles still use the
	// network.
	InMemoryInput bool

	// TaskFailureProb is the per-attempt probability of an injected
	// transient task crash (container lost, JVM OOM, disk hiccup). A
	// crashed attempt counts against the task's attempt budget
	// (maxTaskAttempts) and is requeued after a deterministic exponential
	// backoff. Zero disables injection.
	TaskFailureProb float64
	// AMFailures kills job application masters at points in simulated
	// time. The job's running attempts are lost; a restarted AM attempt
	// (capped by maxAMAttempts) reuses completed map outputs that survive
	// on live machines and recomputes the rest, preserving the plan's rack
	// commitments.
	AMFailures []AMFailure
	// Corruptions silently corrupt one DFS block replica on a machine at a
	// simulated time. Reads checksum-detect corruption, fail over to the
	// next-closest clean replica, and hand the bad replica to the
	// re-replication daemon (counted in Result.RepairBytes).
	Corruptions []Corruption

	// PlannerBudget is the per-decision planning deadline in simulated
	// seconds. When > 0, every failure-triggered replan is charged its
	// deterministic cost (planner.CostFull / CostIncremental — a pure
	// function of jobs × racks × stages, never the wall clock) and its
	// assignments only take effect at t + cost. A decision whose full-plan
	// cost exceeds the budget degrades down the fallback chain: full plan →
	// commitments-only incremental replan → greedy Yarn-CS placement
	// (constraints stay dropped, §3.1's fallback). Each tier is traced and
	// counted in Result.Degradations. Zero keeps the legacy behavior:
	// planning is instantaneous and free.
	PlannerBudget float64
	// ReplanWindow enables replan-storm suppression: fault bursts within a
	// debounce window of this many simulated seconds are coalesced, with
	// at most maxReplansPerWindow immediate replans per window and an
	// exponential cooldown (window length doubles, capped at 8×, while
	// bursts keep saturating it). Excess requests collapse into a single
	// pending replan at the window's end. Zero disables suppression.
	ReplanWindow float64
	// AdmissionLimit enables streaming-arrival admission control: at most
	// this many admitted jobs may be in flight at once. Excess arrivals
	// wait in a bounded FIFO admission queue (Result.Deferred) and are
	// submitted as running jobs reach a terminal state; arrivals beyond
	// AdmissionQueueCap are deterministically shed (Result.Shed). Zero
	// disables admission control: every arrival submits immediately.
	AdmissionLimit int
	// AdmissionQueueCap bounds the admission queue (default 4×
	// AdmissionLimit; requires AdmissionLimit > 0).
	AdmissionQueueCap int
	// Probe, if set, observes every trace event of the run (see
	// trace.Observed) — the invariant monitor of internal/invariants is
	// the checking one — and arms the link-rate and DFS-accounting audits,
	// whose failures it sees as trace.KAudit events. It runs inside the
	// simulation; it must be deterministic and must not call back into
	// the runtime.
	Probe trace.Observer
	// Trace, if set, receives the run's lifecycle events (task attempts,
	// flows, failures, repairs — see internal/trace). When nil, the runtime
	// asks the process-wide trace collector for a run tracer (installed by
	// corralsim -trace); with no collector installed either, tracing stays
	// on the zero-overhead disabled path.
	Trace *trace.Tracer
}

// JobResult captures per-job outcomes.
type JobResult struct {
	ID             int
	Name           string
	AdHoc          bool
	Arrival        float64
	Completion     float64 // absolute completion time
	CompletionTime float64 // Completion − Arrival
	Slots          int     // requested parallelism (Fig 2 metric)
	CrossRackBytes float64
	TaskSeconds    float64 // Σ task wall-clock times ("compute hours")
	ReduceSeconds  []float64
	RacksUsed      int
	// Failed marks a terminal failure (task attempt budget or AM attempt
	// budget exhausted). Completion then records the failure time.
	Failed     bool
	FailReason string
}

// AvgReduceTime returns the mean reduce-task duration (Fig 7c metric), or
// 0 for map-only jobs.
func (r *JobResult) AvgReduceTime() float64 {
	if len(r.ReduceSeconds) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range r.ReduceSeconds {
		s += v
	}
	return s / float64(len(r.ReduceSeconds))
}

// Result is the outcome of one run.
type Result struct {
	Scheduler      Kind
	Jobs           []JobResult
	Makespan       float64
	CrossRackBytes float64
	TaskSeconds    float64
	InputRackCoV   float64 // data balance of input placement (§6.2)
	Events         uint64
	// RepairBytes is DFS re-replication traffic (bytes copied by the
	// repair daemon after machine failures); included in the network's
	// total-byte accounting but not charged to any job.
	RepairBytes float64
	// QuiesceTime is when the cluster actually went quiet: the later of
	// Makespan (last job completion) and the last DFS repair commit.
	// Makespan deliberately excludes repair traffic — it is the paper's
	// job-facing metric — so a repair tail still in flight after the last
	// job finish shows up only here (and as the tracer's sim_end event).
	QuiesceTime float64
	// Replans counts failure-triggered planner re-invocations.
	Replans int
	// FailedJobs counts jobs that ended in terminal failure rather than
	// completion (attempt budgets exhausted under attrition).
	FailedJobs int
	// Degradations counts replan decisions by fallback tier (only budgeted
	// runs, PlannerBudget > 0, populate it).
	Degradations Degradations
	// ReplansSuppressed counts replan requests absorbed by the
	// storm-suppression debounce window.
	ReplansSuppressed int
	// Deferred counts arrivals parked in the admission queue; Shed counts
	// arrivals rejected at queue capacity (terminal, not in FailedJobs);
	// MaxAdmissionQueue is the peak queue depth observed.
	Deferred          int
	Shed              int
	MaxAdmissionQueue int
}

// Degradations breaks replan decisions down by fallback-chain tier: Full
// plans that fit the budget, commitments-only Incremental replans, and
// Greedy decisions (no planner call; affected jobs run with constraints
// dropped, the Yarn-CS placement).
type Degradations struct {
	Full        int
	Incremental int
	Greedy      int
}

// AvgCompletionTime returns the mean of per-job completion times.
func (r *Result) AvgCompletionTime() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	s := 0.0
	for _, j := range r.Jobs {
		s += j.CompletionTime
	}
	return s / float64(len(r.Jobs))
}

// CompletionTimes returns per-job completion times, sorted ascending.
func (r *Result) CompletionTimes() []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.CompletionTime
	}
	sort.Float64s(out)
	return out
}

// Run simulates the given jobs to completion and returns the result.
func Run(opts Options, jobs []*job.Job) (*Result, error) {
	rt, err := newRuntime(opts, jobs)
	if err != nil {
		return nil, err
	}
	return rt.run()
}

type runtime struct {
	opts    Options
	sim     *des.Simulator
	cluster *topology.Cluster
	net     *netsim.Network
	store   *dfs.Store
	rng     *rand.Rand
	rngSrc  *countingSource

	freeSlots    []int
	dead         []bool
	deadCount    int
	running      [][]*runningTask // per-machine in-flight attempts
	machineOrder []int32          // heartbeat visit order, reshuffled per pass
	machineAt    []int32          // machine -> its position in machineOrder

	// tkFree holds retired attempt objects for newRunningTask to reuse.
	tkFree []*runningTask
	// locBuild is the scratch that lays out stages' locality indexes.
	locBuild locBuilder
	// shufBuf is the reusable shuffle-path buffer for StartPath (which
	// interns paths and never retains the caller's slice).
	shufBuf [3]topology.LinkID

	// Attrition state: blacklisted machines keep their slots but receive
	// no new attempts until the cooldown expires; machineFailures counts
	// failed attempts per machine toward blacklistThreshold.
	blacklisted     []bool
	machineFailures []int
	failedJobs      int

	// Fault state.
	rackLinkFactor []float64 // current uplink/downlink scale per rack
	recoverAt      []float64 // scheduled recovery per dead machine (+Inf none)
	repairs        map[repairKey]*repairOp
	repairList     []*repairOp // append-ordered, for deterministic iteration
	repairBytes    float64
	replans        int

	// Overload-hardening state (overload.go). replanCooldown stays 0 (an
	// effective factor of 1) until suppression first escalates, so legacy
	// runs — and pre-PR-8 snapshots of them — carry all-zero values here.
	degradations      Degradations
	replansSuppressed int
	replanWindowEnd   float64
	replansInWindow   int
	replanCooldown    int
	replanPending     bool
	admissionQueue    []*jobExec
	admitted          int
	deferred          int
	shed              int
	maxAdmissionQ     int

	jobs     []*jobExec
	byOrder  []*jobExec // dispatch order per policy
	active   int        // jobs not yet complete
	swLoad   []int      // ShuffleWatcher: per-rack assigned-job count
	coflowID netsim.CoflowID

	// runnableJobs is dispatch's per-pass scratch: the byOrder subsequence
	// with runnable tasks, rebuilt at the top of every dispatch.
	runnableJobs []*jobExec
	// rackDemand is dispatch's per-rack scratch: the racks some runnable
	// job may run in, rebuilt with runnableJobs. demandRacks lists the
	// marked racks, so the next dispatch clears only those.
	rackDemand  []bool
	demandRacks []int32
	// visitKeys is visitEligible's scratch: pos<<32|machine per eligible
	// machine of the demanded racks, sized for all machines up front.
	visitKeys []uint64

	dispatchPending bool
	retryPending    bool
	declined        bool
	// onDispatch and onRetry are dispatchFired and retryFired, bound once.
	onDispatch, onRetry func()

	// Queue-share accounting for the planned vs ad-hoc capacity queues.
	runningPlanned int
	runningAdhoc   int
	haveAdhoc      bool
	havePlanned    bool

	// Tracing: tr is nil (disabled fast path) unless Options.Trace is set
	// or a process-wide collector is installed; lastRepairDone tracks the
	// final repair commit for Result.QuiesceTime.
	tr             *trace.Tracer
	lastRepairDone float64
}

func newRuntime(opts Options, jobs []*job.Job) (*runtime, error) {
	if opts.Scheduler == Corral || opts.Scheduler == LocalShuffle {
		if opts.Plan == nil {
			return nil, fmt.Errorf("runtime: scheduler %v requires a plan", opts.Scheduler)
		}
	}
	cluster, err := topology.New(opts.Cluster)
	if err != nil {
		return nil, err
	}
	m := cluster.Config.Machines()
	if opts.DelayNodeLocal == 0 {
		opts.DelayNodeLocal = m
	}
	if opts.DelayRackLocal == 0 {
		opts.DelayRackLocal = 2 * m
	}
	if err := validateFailures(opts.Failures, cluster.Config.Machines()); err != nil {
		return nil, err
	}
	if err := validateLinkFaults(opts.LinkFaults, cluster.Config.Racks); err != nil {
		return nil, err
	}
	if err := validateAttrition(opts, cluster.Config.Machines()); err != nil {
		return nil, err
	}
	if err := validateOverload(opts); err != nil {
		return nil, err
	}
	// Resolve overload defaults before buildSpec records the options, so a
	// resumed run re-applies them idempotently.
	if opts.AdmissionLimit > 0 && opts.AdmissionQueueCap <= 0 {
		opts.AdmissionQueueCap = 4 * opts.AdmissionLimit
	}
	if opts.RemoteStorageInput {
		if _, ok := cluster.StorageLink(); !ok {
			return nil, fmt.Errorf("runtime: RemoteStorageInput requires Cluster.RemoteStorageBandwidth > 0")
		}
	}
	// Default to the max-min allocator. It is stateful, so each run gets a
	// fresh instance — required for parallel experiment sweeps.
	netPolicy := opts.Network
	if netPolicy == nil {
		netPolicy = netsim.NewIncrementalMaxMin()
	}
	sim := des.New()
	// The one seeded RNG stream (shared with the DFS) draws through a
	// counting wrapper so snapshots can record — and restore audits can
	// verify — exactly how many values a run has consumed (snapshot.go).
	rngSrc := newCountingSource(opts.Seed)
	rng := rand.New(rngSrc)
	rt := &runtime{
		opts:      opts,
		sim:       sim,
		cluster:   cluster,
		net:       netsim.New(sim, cluster, netPolicy),
		store:     dfs.New(cluster, opts.BlockSize, rng),
		rng:       rng,
		rngSrc:    rngSrc,
		freeSlots: make([]int, m),
		dead:      make([]bool, m),
		running:   make([][]*runningTask, m),
		swLoad:    make([]int, cluster.Config.Racks),
	}
	// The runtime honors the pooling discipline (every *Flow reference is
	// dropped in the done callback or cleared on abort), so retired flow
	// objects are recycled instead of churning the GC.
	rt.net.SetFlowPooling(true)
	rt.onDispatch, rt.onRetry = rt.dispatchFired, rt.retryFired
	rt.machineOrder = make([]int32, m)
	rt.machineAt = make([]int32, m)
	for i := range rt.freeSlots {
		rt.freeSlots[i] = cluster.Config.SlotsPerMachine
		rt.machineOrder[i] = int32(i)
		rt.machineAt[i] = int32(i)
	}
	rt.rackDemand = make([]bool, cluster.Config.Racks)
	rt.visitKeys = make([]uint64, 0, m)
	rt.blacklisted = make([]bool, m)
	rt.machineFailures = make([]int, m)

	// Attach tracing before any emission site (time-zero machine failures,
	// input upload) can fire. An explicit Options.Trace wins; otherwise ask
	// the process-wide collector, which returns nil (disabled) when no
	// -trace flag installed one.
	rt.tr = opts.Trace
	if rt.tr == nil {
		rt.tr = trace.NewRun(fmt.Sprintf("sim/%s/seed%d", opts.Scheduler, opts.Seed))
	}
	rt.tr = trace.Observed(rt.tr, opts.Probe)
	if rt.tr.Enabled() {
		for mi := 0; mi < m; mi++ {
			rt.tr.MachineMeta(mi, cluster.RackOf(mi))
		}
		for _, l := range cluster.Links() {
			rt.tr.LinkMeta(int(l.ID), cluster.LinkName(l.ID), l.Capacity)
		}
	}
	rt.net.Trace = rt.tr
	rt.store.AttachTracer(rt.tr, func() float64 { return float64(sim.Now()) })

	if opts.Probe != nil {
		// Audit the bandwidth allocator after every recompute: any negative
		// or capacity-infeasible rate becomes an invariant violation.
		rt.net.OnAllocate = func() {
			if err := rt.net.AuditFeasibility(1e-6); err != nil {
				rt.tr.Audit(float64(rt.sim.Now()), err.Error())
			}
		}
	}
	rt.rackLinkFactor = make([]float64, cluster.Config.Racks)
	for i := range rt.rackLinkFactor {
		rt.rackLinkFactor[i] = 1
	}
	rt.recoverAt = make([]float64, m)
	for i := range rt.recoverAt {
		rt.recoverAt[i] = math.Inf(1)
	}
	rt.repairs = make(map[repairKey]*repairOp)
	for _, f := range opts.FailedMachines {
		if f < 0 || f >= m {
			return nil, fmt.Errorf("runtime: failed machine %d out of range", f)
		}
		if !rt.dead[f] {
			rt.dead[f] = true
			rt.deadCount++
			rt.freeSlots[f] = 0
			rt.tr.MachineDown(0, f)
			// Dead from time zero: no data was ever on them to repair, but
			// the store must know not to place or read replicas there.
			rt.store.MachineDown(f)
		}
	}

	// Materialize job executions and pre-place input data ("data is placed
	// at the desired location as it is uploaded", §2).
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		je, err := rt.prepareJob(j)
		if err != nil {
			return nil, err
		}
		rt.jobs = append(rt.jobs, je)
	}
	for _, je := range rt.jobs {
		if je.assignment != nil {
			rt.havePlanned = true
		} else {
			rt.haveAdhoc = true
		}
	}
	rt.sortDispatchOrder()
	return rt, nil
}

// prepareJob builds the execution state and uploads input files.
func (rt *runtime) prepareJob(j *job.Job) (*jobExec, error) {
	je := &jobExec{rt: rt, job: j, completion: -1}

	// Placement guidelines.
	usePlanData := false
	if rt.opts.Plan != nil && !j.AdHoc {
		if a := rt.opts.Plan.Assignments[j.ID]; a != nil {
			je.assignment = a
			switch rt.opts.Scheduler {
			case Corral:
				usePlanData = true
				je.allowedRacks = a.Racks
			case LocalShuffle:
				je.allowedRacks = a.Racks
			}
		}
	}
	// Rack-failure fallback (§3.1): if a majority of the machines in the
	// assigned racks are unreachable, ignore the guidelines.
	if je.allowedRacks != nil && rt.deadCount > 0 && rt.majorityDead(je.allowedRacks) {
		je.allowedRacks = nil
		usePlanData = false
	}

	// Upload input files for source stages (skipped entirely when input
	// lives in the remote storage cluster).
	for si := range j.Stages {
		if rt.opts.RemoteStorageInput {
			break
		}
		st := &j.Stages[si]
		if len(st.Upstream) > 0 || st.Profile.InputBytes <= 0 {
			continue
		}
		var policy dfs.Placement
		if usePlanData {
			policy = dfs.CorralPlacement{Racks: je.assignment.Racks}
		} else {
			policy = dfs.DefaultPlacement{}
		}
		name := fmt.Sprintf("job%d-stage%d-input", j.ID, si)
		f, err := rt.store.Create(name, st.Profile.InputBytes, policy)
		if err != nil {
			return nil, err
		}
		je.inputFiles = append(je.inputFiles, f)
		je.inputStage = append(je.inputStage, si)
	}
	return je, nil
}

// sortDispatchOrder fixes the static part of job ordering; arrival gating
// happens at dispatch time.
func (rt *runtime) sortDispatchOrder() {
	// FIFO by arrival (the capacity-scheduler baseline order, which also
	// keeps ad-hoc jobs from being starved by later-arriving planned work);
	// among same-arrival jobs, planned priority governs for the plan-driven
	// schedulers (§3.1: the slot goes to the highest-priority job).
	rt.byOrder = append(rt.byOrder[:0], rt.jobs...)
	sort.SliceStable(rt.byOrder, func(a, b int) bool {
		ja, jb := rt.byOrder[a], rt.byOrder[b]
		if ja.job.Arrival != jb.job.Arrival {
			return ja.job.Arrival < jb.job.Arrival
		}
		switch rt.opts.Scheduler {
		case Corral, LocalShuffle:
			pa, pb := ja.planPriority(), jb.planPriority()
			if pa != pb {
				return pa < pb
			}
		}
		return ja.job.ID < jb.job.ID
	})
}

func (rt *runtime) run() (*Result, error) {
	rt.start()
	rt.sim.Run()
	return rt.finish()
}

// start schedules the initial event set: job arrivals and every declared
// fault. Split from run so the snapshot layer (snapshot.go) can drive the
// event loop step by step between start and finish.
func (rt *runtime) start() {
	rt.active = len(rt.jobs)
	for _, je := range rt.jobs {
		je := je
		rt.sim.At(des.Time(je.job.Arrival), func() { rt.arrive(je) })
	}
	for _, f := range rt.opts.Failures {
		f := f
		rt.sim.At(des.Time(f.At), func() { rt.failMachineTransient(f) })
	}
	for _, lf := range rt.opts.LinkFaults {
		lf := lf
		rt.sim.At(des.Time(lf.At), func() { rt.applyLinkFault(lf) })
	}
	for _, af := range rt.opts.AMFailures {
		af := af
		rt.sim.At(des.Time(af.At), func() { rt.failAM(af.JobID) })
	}
	for _, c := range rt.opts.Corruptions {
		c := c
		rt.sim.At(des.Time(c.At), func() { rt.applyCorruption(c) })
	}
}

// finish runs the end-of-simulation audits and builds the Result. The
// event queue must have drained.
func (rt *runtime) finish() (*Result, error) {
	if rt.opts.Probe != nil {
		// Final audit: incremental DFS accounting must agree with a from-
		// scratch recount.
		if err := rt.store.AuditAccounting(); err != nil {
			rt.tr.Audit(float64(rt.sim.Now()), err.Error())
		}
	}

	res := &Result{
		Scheduler:      rt.opts.Scheduler,
		CrossRackBytes: rt.net.CrossRackBytes(),
		InputRackCoV:   rt.store.RackCoV(),
		Events:         rt.sim.Fired(),
		RepairBytes:    rt.repairBytes,
		Replans:        rt.replans,
		FailedJobs:     rt.failedJobs,

		Degradations:      rt.degradations,
		ReplansSuppressed: rt.replansSuppressed,
		Deferred:          rt.deferred,
		Shed:              rt.shed,
		MaxAdmissionQueue: rt.maxAdmissionQ,
	}
	for _, je := range rt.jobs {
		if je.completion < 0 {
			// Still close the run, so the invariant monitor's end-of-run
			// checks name every stuck job and attempt.
			rt.tr.SimEnd(float64(rt.sim.Now()))
			return nil, fmt.Errorf("runtime: job %d never completed (deadlock?)", je.job.ID)
		}
		jr := JobResult{
			ID:             je.job.ID,
			Name:           je.job.Name,
			AdHoc:          je.job.AdHoc,
			Arrival:        je.job.Arrival,
			Completion:     je.completion,
			CompletionTime: je.completion - je.job.Arrival,
			Slots:          je.job.Slots(),
			CrossRackBytes: rt.net.CrossRackBytesByJob(je.job.ID),
			TaskSeconds:    je.taskSeconds,
			ReduceSeconds:  je.reduceSeconds,
			RacksUsed:      je.racksUsed,
			Failed:         je.failed,
			FailReason:     je.failReason,
		}
		res.Jobs = append(res.Jobs, jr)
		res.TaskSeconds += jr.TaskSeconds
		if je.completion > res.Makespan {
			res.Makespan = je.completion
		}
	}
	res.QuiesceTime = math.Max(res.Makespan, rt.lastRepairDone)
	rt.tr.SimEnd(res.QuiesceTime)
	return res, nil
}
