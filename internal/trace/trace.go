// Package trace is the deterministic, simulation-time-only event tracer
// behind `corralsim -trace` and `cmd/corraltrace`. The runtime, network
// simulator, DFS and planner emit typed lifecycle events into a per-run
// Tracer; a Collector gathers the runs of one process-wide experiment
// invocation and exports them as flat JSONL (for scripting and
// corraltrace) or Chrome trace-event JSON (for Perfetto).
// An Observer — the invariant monitor is one — consumes the same stream
// live through a tracer from Observed.
//
// Three properties are contracts, not aspirations:
//
//   - Nil safety / zero overhead when disabled. Every emit method is
//     defined on *Tracer with a nil receiver check and scalar arguments
//     only, so the disabled path performs no allocations (pinned by
//     TestDisabledTracerZeroAlloc and BenchmarkTracerDisabledEmit).
//     Instrumentation sites that need extra work to build an event guard
//     it with Enabled().
//   - Simulation time only. Event timestamps are des.Time seconds; the
//     package never reads the wall clock (corralvet's wallclock check
//     runs over it), so a trace is a pure function of (config, jobs,
//     seed).
//   - Order invariance. Events within one run are buffered in emission
//     order, which the DES makes deterministic. Across runs, export
//     ordering is by (label, serialized content) — see collector.go — so
//     traces are bit-identical regardless of the -workers fan-out that
//     registered the runs.
package trace

// Kind enumerates the event taxonomy. The names (see kindNames) are the
// "ev" field of the JSONL export and are part of the trace format.
type Kind uint8

// Runtime lifecycle, network, DFS and planner event kinds.
const (
	// Metadata, emitted once per run before simulated time starts.
	KMachineMeta Kind = iota // machine, rack
	KLinkMeta                // link, value=capacity, detail=name

	// Job and task-attempt lifecycle (runtime).
	KJobSubmit   // job, value=slots, detail=name
	KJobDone     // job
	KJobFail     // job, detail=reason
	KTaskQueued  // role, job, stage, task, attempt
	KTaskStart   // role, job, stage, task, attempt, machine
	KTaskFinish  // role, job, stage, task, attempt, machine, value=duration
	KTaskCrash   // role, job, stage, task, attempt, machine
	KTaskAbort   // role, job, stage, task, attempt, machine
	KTaskBackoff // role, job, stage, task, attempt, value=delay
	KShuffleDone // job, stage, task, machine (reduce shuffle phase ended)
	KSlotsBusy   // value=occupied slots cluster-wide (counter)
	KMachineDown // machine
	KMachineUp   // machine
	KBlacklist   // machine
	KUnblacklist // machine
	KAMFail      // job
	KAMRestart   // job
	KReplan      // value=jobs being replanned
	KSimEnd      // value=quiesce time

	// Flow-level network (netsim).
	KFlowStart  // flow, job, src, dst, value=bytes, detail="cross" if cross-rack
	KFlowFinish // flow, value=bytes
	KFlowCancel // flow, value=bytes actually sent
	KFlowRate   // flow, value=new rate (emitted on change only)
	KLinkUtil   // link, value=utilization fraction (counter, on change only)
	KLinkCap    // link, value=new capacity (link faults)

	// DFS (block store).
	KDFSCreate    // value=bytes, detail=file name
	KDFSCorrupt   // machine, value=block bytes
	KBlockRead    // job, dst=reader, src=replica, value=bytes, detail="failover" if corrupt-failover
	KRepairStart  // src, dst, value=bytes
	KRepairCommit // src, dst, value=bytes

	// Planner.
	KPlanStart  // value=jobs, detail=objective
	KPlanAssign // job, attempt=priority, value=planned start, detail=rack set
	KPlanDone   // value=objective value

	// Overload hardening: budgeted planning, replan-storm suppression and
	// streaming-arrival admission control.
	KPlanBudgetExceeded // value=estimated full-plan cost exceeding the budget
	KDegrade            // attempt=fallback tier (1=incremental, 2=greedy), value=jobs affected
	KReplanSuppressed   // value=coalesced fire time of the pending replan
	KJobDeferred        // job, value=admission queue depth after the deferral
	KJobShed            // job, value=admission queue depth at the shed

	// Invariant checking: an externally audited property (link-rate
	// feasibility, DFS byte accounting, snapshot restore) failed.
	KAudit // detail=the failed check's message

	numKinds
)

var kindNames = [numKinds]string{
	KMachineMeta:  "machine_meta",
	KLinkMeta:     "link_meta",
	KJobSubmit:    "job_submit",
	KJobDone:      "job_done",
	KJobFail:      "job_fail",
	KTaskQueued:   "task_queued",
	KTaskStart:    "task_start",
	KTaskFinish:   "task_finish",
	KTaskCrash:    "task_crash",
	KTaskAbort:    "task_abort",
	KTaskBackoff:  "task_backoff",
	KShuffleDone:  "shuffle_done",
	KSlotsBusy:    "slots_busy",
	KMachineDown:  "machine_down",
	KMachineUp:    "machine_up",
	KBlacklist:    "blacklist",
	KUnblacklist:  "unblacklist",
	KAMFail:       "am_fail",
	KAMRestart:    "am_restart",
	KReplan:       "replan",
	KSimEnd:       "sim_end",
	KFlowStart:    "flow_start",
	KFlowFinish:   "flow_finish",
	KFlowCancel:   "flow_cancel",
	KFlowRate:     "flow_rate",
	KLinkUtil:     "link_util",
	KLinkCap:      "link_cap",
	KDFSCreate:    "dfs_create",
	KDFSCorrupt:   "dfs_corrupt",
	KBlockRead:    "block_read",
	KRepairStart:  "repair_start",
	KRepairCommit: "repair_commit",
	KPlanStart:    "plan_start",
	KPlanAssign:   "plan_assign",
	KPlanDone:     "plan_done",

	KPlanBudgetExceeded: "plan_budget_exceeded",
	KDegrade:            "degrade",
	KReplanSuppressed:   "replan_suppressed",
	KJobDeferred:        "job_deferred",
	KJobShed:            "job_shed",

	KAudit: "audit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Role distinguishes map from reduce attempts in task lifecycle events.
type Role uint8

// Task roles.
const (
	RoleNone Role = iota
	RoleMap
	RoleReduce
)

func (r Role) String() string {
	switch r {
	case RoleMap:
		return "map"
	case RoleReduce:
		return "reduce"
	}
	return ""
}

// Event is one trace record. Integer fields not used by the event's Kind
// are -1; Value and Detail are Kind-specific (see the Kind constants).
// Events are value types appended to a per-run buffer — emitting one
// performs at most an amortized slice growth, never a boxing allocation.
type Event struct {
	T      float64 // simulation time, seconds
	Kind   Kind
	Role   Role
	Job    int
	Stage  int
	Task   int
	Att    int // attempt number, or planner priority for KPlanAssign
	Mach   int
	Link   int
	Src    int
	Dst    int
	Flow   int64
	Value  float64
	Detail string
}

// Tracer buffers the events of one simulation (or planner) run, in
// emission order. A nil *Tracer is valid and discards everything — the
// emit methods below are all nil-safe, which is the disabled fast path.
// A Tracer is not goroutine-safe; each run owns its tracer exclusively
// (runs fan out across workers, events within a run do not).
type Tracer struct {
	label  string
	events []Event
	// obs, when set, receives every event, which is then buffered in into
	// rather than here (nowhere when into is nil); see Observed.
	obs  Observer
	into *Tracer
}

// Observer receives every event of a run, in emission order — the
// invariant monitor is one. It runs inside the simulation, so it must be
// deterministic and must not call back into the run.
type Observer interface {
	Observe(Event)
}

// New creates a standalone tracer (outside any Collector).
func New(label string) *Tracer { return &Tracer{label: label} }

// Observed returns a tracer that forwards every event to o and buffers it
// in t; with t nil nothing is buffered and o alone sees the events. With
// o nil it returns t unchanged.
func Observed(t *Tracer, o Observer) *Tracer {
	if o == nil {
		return t
	}
	return &Tracer{label: t.Label(), obs: o, into: t}
}

// emit hands one event to the observer and the buffer.
//
//corral:hotpath
func (t *Tracer) emit(e Event) {
	if t.obs == nil {
		t.events = append(t.events, e)
		return
	}
	t.obs.Observe(e)
	if t.into != nil {
		t.into.emit(e)
	}
}

// Enabled reports whether emissions are recorded. Instrumentation sites
// that must do extra work to build an event (fmt, per-link scans) guard
// on this; plain emit calls rely on the methods' own nil checks.
func (t *Tracer) Enabled() bool { return t != nil }

// Label returns the run label given at creation.
func (t *Tracer) Label() string {
	if t == nil {
		return ""
	}
	return t.label
}

// Events returns the buffered events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if t.obs != nil {
		return t.into.Events()
	}
	return t.events
}

// unset pre-fills the fields a Kind does not use.
//
//corral:hotpath
func unsetEvent(now float64, k Kind) Event {
	return Event{T: now, Kind: k, Job: -1, Stage: -1, Task: -1, Att: -1,
		Mach: -1, Link: -1, Src: -1, Dst: -1, Flow: -1}
}

// MachineMeta records machine→rack topology (timestamp 0, pre-sim).
//
//corral:hotpath
func (t *Tracer) MachineMeta(machine, rack int) {
	if t == nil {
		return
	}
	e := unsetEvent(0, KMachineMeta)
	e.Mach, e.Link = machine, -1
	e.Src = rack // rack rides in Src: Event has no dedicated rack field
	t.emit(e)
}

// LinkMeta records a link's name and base capacity (timestamp 0).
//
//corral:hotpath
func (t *Tracer) LinkMeta(link int, name string, capacity float64) {
	if t == nil {
		return
	}
	e := unsetEvent(0, KLinkMeta)
	e.Link, e.Value, e.Detail = link, capacity, name
	t.emit(e)
}

// JobSubmit records a job entering the scheduler.
//
//corral:hotpath
func (t *Tracer) JobSubmit(now float64, job int, name string, slots int) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KJobSubmit)
	e.Job, e.Value, e.Detail = job, float64(slots), name
	t.emit(e)
}

// JobDone records a job's last stage completing.
//
//corral:hotpath
func (t *Tracer) JobDone(now float64, job int) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KJobDone)
	e.Job = job
	t.emit(e)
}

// JobFail records a terminal job failure.
//
//corral:hotpath
func (t *Tracer) JobFail(now float64, job int, reason string) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KJobFail)
	e.Job, e.Detail = job, reason
	t.emit(e)
}

//corral:hotpath
func taskEvent(now float64, k Kind, role Role, job, stage, task, attempt, machine int) Event {
	e := unsetEvent(now, k)
	e.Role, e.Job, e.Stage, e.Task, e.Att, e.Mach = role, job, stage, task, attempt, machine
	return e
}

// TaskQueued records a task (re-)entering the pending queues.
//
//corral:hotpath
func (t *Tracer) TaskQueued(now float64, role Role, job, stage, task, attempt int) {
	if t == nil {
		return
	}
	t.emit(taskEvent(now, KTaskQueued, role, job, stage, task, attempt, -1))
}

// TaskStart records an attempt launching on a machine.
//
//corral:hotpath
func (t *Tracer) TaskStart(now float64, role Role, job, stage, task, attempt, machine int) {
	if t == nil {
		return
	}
	t.emit(taskEvent(now, KTaskStart, role, job, stage, task, attempt, machine))
}

// TaskFinish records an attempt completing; dur is its wall-clock
// (simulated) duration.
//
//corral:hotpath
func (t *Tracer) TaskFinish(now float64, role Role, job, stage, task, attempt, machine int, dur float64) {
	if t == nil {
		return
	}
	e := taskEvent(now, KTaskFinish, role, job, stage, task, attempt, machine)
	e.Value = dur
	t.emit(e)
}

// TaskCrash records an injected attempt crash.
//
//corral:hotpath
func (t *Tracer) TaskCrash(now float64, role Role, job, stage, task, attempt, machine int) {
	if t == nil {
		return
	}
	t.emit(taskEvent(now, KTaskCrash, role, job, stage, task, attempt, machine))
}

// TaskAbort records an attempt killed by failure/speculation/AM restart.
//
//corral:hotpath
func (t *Tracer) TaskAbort(now float64, role Role, job, stage, task, attempt, machine int) {
	if t == nil {
		return
	}
	t.emit(taskEvent(now, KTaskAbort, role, job, stage, task, attempt, machine))
}

// TaskBackoff records the retry backoff delay before a crashed task
// re-enters the pending queues.
//
//corral:hotpath
func (t *Tracer) TaskBackoff(now float64, role Role, job, stage, task, attempt int, delay float64) {
	if t == nil {
		return
	}
	e := taskEvent(now, KTaskBackoff, role, job, stage, task, attempt, -1)
	e.Value = delay
	t.emit(e)
}

// ShuffleDone records a reduce attempt's shuffle phase completing.
//
//corral:hotpath
func (t *Tracer) ShuffleDone(now float64, job, stage, task, machine int) {
	if t == nil {
		return
	}
	t.emit(taskEvent(now, KShuffleDone, RoleReduce, job, stage, task, -1, machine))
}

// SlotsBusy samples the cluster-wide occupied-slot counter.
//
//corral:hotpath
func (t *Tracer) SlotsBusy(now float64, busy int) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KSlotsBusy)
	e.Value = float64(busy)
	t.emit(e)
}

//corral:hotpath
func (t *Tracer) machineEvent(now float64, k Kind, machine int) {
	e := unsetEvent(now, k)
	e.Mach = machine
	t.emit(e)
}

// MachineDown records a machine failure.
//
//corral:hotpath
func (t *Tracer) MachineDown(now float64, machine int) {
	if t == nil {
		return
	}
	t.machineEvent(now, KMachineDown, machine)
}

// MachineUp records a transient failure recovering.
//
//corral:hotpath
func (t *Tracer) MachineUp(now float64, machine int) {
	if t == nil {
		return
	}
	t.machineEvent(now, KMachineUp, machine)
}

// Blacklist records a machine leaving the slot pool at the failed-attempt
// threshold.
//
//corral:hotpath
func (t *Tracer) Blacklist(now float64, machine int) {
	if t == nil {
		return
	}
	t.machineEvent(now, KBlacklist, machine)
}

// Unblacklist records a machine rejoining after its cooldown.
//
//corral:hotpath
func (t *Tracer) Unblacklist(now float64, machine int) {
	if t == nil {
		return
	}
	t.machineEvent(now, KUnblacklist, machine)
}

// AMFail records an application-master kill.
//
//corral:hotpath
func (t *Tracer) AMFail(now float64, job int) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KAMFail)
	e.Job = job
	t.emit(e)
}

// AMRestart records a restarted AM resuming its job.
//
//corral:hotpath
func (t *Tracer) AMRestart(now float64, job int) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KAMRestart)
	e.Job = job
	t.emit(e)
}

// Replan records a failure-triggered planner re-invocation covering n jobs.
//
//corral:hotpath
func (t *Tracer) Replan(now float64, jobs int) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KReplan)
	e.Value = float64(jobs)
	t.emit(e)
}

// SimEnd records the run's quiesce time (last job completion or repair
// commit, whichever is later).
//
//corral:hotpath
func (t *Tracer) SimEnd(quiesce float64) {
	if t == nil {
		return
	}
	e := unsetEvent(quiesce, KSimEnd)
	e.Value = quiesce
	t.emit(e)
}

// FlowStart records a network flow starting. src/dst are -1 for
// rack-aggregated path flows whose source is a machine set.
//
//corral:hotpath
func (t *Tracer) FlowStart(now float64, flow int64, job, src, dst int, bytes float64, cross bool) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KFlowStart)
	e.Flow, e.Job, e.Src, e.Dst, e.Value = flow, job, src, dst, bytes
	if cross {
		e.Detail = "cross"
	}
	t.emit(e)
}

// FlowFinish records a flow completing its bytes.
//
//corral:hotpath
func (t *Tracer) FlowFinish(now float64, flow int64, bytes float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KFlowFinish)
	e.Flow, e.Value = flow, bytes
	t.emit(e)
}

// FlowCancel records a flow aborted mid-transfer; sent is what crossed
// the wire before the abort.
//
//corral:hotpath
func (t *Tracer) FlowCancel(now float64, flow int64, sent float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KFlowCancel)
	e.Flow, e.Value = flow, sent
	t.emit(e)
}

// FlowRate records a flow's allocated rate changing at a recompute point.
//
//corral:hotpath
func (t *Tracer) FlowRate(now float64, flow int64, rate float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KFlowRate)
	e.Flow, e.Value = flow, rate
	t.emit(e)
}

// LinkUtil samples a link's utilization fraction at a recompute point
// (emitted on change only).
//
//corral:hotpath
func (t *Tracer) LinkUtil(now float64, link int, util float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KLinkUtil)
	e.Link, e.Value = link, util
	t.emit(e)
}

// LinkCap records a link-fault capacity change.
//
//corral:hotpath
func (t *Tracer) LinkCap(now float64, link int, capacity float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KLinkCap)
	e.Link, e.Value = link, capacity
	t.emit(e)
}

// DFSCreate records a file being placed into the block store.
//
//corral:hotpath
func (t *Tracer) DFSCreate(now float64, name string, bytes float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KDFSCreate)
	e.Value, e.Detail = bytes, name
	t.emit(e)
}

// DFSCorrupt records a replica on a machine going silently corrupt.
//
//corral:hotpath
func (t *Tracer) DFSCorrupt(now float64, machine int, bytes float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KDFSCorrupt)
	e.Mach, e.Value = machine, bytes
	t.emit(e)
}

// BlockRead records a remote DFS block read; failover marks a read that
// checksum-skipped a corrupt replica.
//
//corral:hotpath
func (t *Tracer) BlockRead(now float64, job, reader, replica int, bytes float64, failover bool) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KBlockRead)
	e.Job, e.Dst, e.Src, e.Value = job, reader, replica, bytes
	if failover {
		e.Detail = "failover"
	}
	t.emit(e)
}

// RepairStart records the re-replication daemon launching a copy.
//
//corral:hotpath
func (t *Tracer) RepairStart(now float64, src, dst int, bytes float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KRepairStart)
	e.Src, e.Dst, e.Value = src, dst, bytes
	t.emit(e)
}

// RepairCommit records a repair copy landing in the store.
//
//corral:hotpath
func (t *Tracer) RepairCommit(now float64, src, dst int, bytes float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KRepairCommit)
	e.Src, e.Dst, e.Value = src, dst, bytes
	t.emit(e)
}

// PlanStart records a planner invocation over n jobs. now is simulation
// time for replans, 0 for offline planning.
//
//corral:hotpath
func (t *Tracer) PlanStart(now float64, jobs int, objective string) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KPlanStart)
	e.Value, e.Detail = float64(jobs), objective
	t.emit(e)
}

// PlanAssign records one job's planned rack set, priority and start.
//
//corral:hotpath
func (t *Tracer) PlanAssign(now float64, job, priority int, start float64, racks []int) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KPlanAssign)
	e.Job, e.Att, e.Value = job, priority, start
	e.Detail = formatRacks(racks)
	t.emit(e)
}

// PlanDone records the plan's estimated objective value.
//
//corral:hotpath
func (t *Tracer) PlanDone(now float64, objective float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KPlanDone)
	e.Value = objective
	t.emit(e)
}

// PlanBudgetExceeded records a replan decision whose estimated full-plan
// cost exceeds Options.PlannerBudget, forcing a fallback tier.
//
//corral:hotpath
func (t *Tracer) PlanBudgetExceeded(now float64, cost float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KPlanBudgetExceeded)
	e.Value = cost
	t.emit(e)
}

// Degrade records a fallback-chain step: tier 1 is the commitments-only
// incremental replan, tier 2 the greedy Yarn-CS placement; jobs is the
// number of pending jobs affected.
//
//corral:hotpath
func (t *Tracer) Degrade(now float64, tier, jobs int) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KDegrade)
	e.Att, e.Value = tier, float64(jobs)
	t.emit(e)
}

// ReplanSuppressed records a replan request absorbed by the storm
// debounce window; fireAt is when the coalesced replan will run.
//
//corral:hotpath
func (t *Tracer) ReplanSuppressed(now float64, fireAt float64) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KReplanSuppressed)
	e.Value = fireAt
	t.emit(e)
}

// JobDeferred records an arrival parked in the admission queue; depth is
// the queue depth including this job.
//
//corral:hotpath
func (t *Tracer) JobDeferred(now float64, job, depth int) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KJobDeferred)
	e.Job, e.Value = job, float64(depth)
	t.emit(e)
}

// JobShed records an arrival rejected because the admission queue is at
// capacity; depth is the (full) queue depth at the shed.
//
//corral:hotpath
func (t *Tracer) JobShed(now float64, job, depth int) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KJobShed)
	e.Job, e.Value = job, float64(depth)
	t.emit(e)
}

// Audit records an externally checked invariant failing; detail is the
// check's message.
//
//corral:hotpath
func (t *Tracer) Audit(now float64, detail string) {
	if t == nil {
		return
	}
	e := unsetEvent(now, KAudit)
	e.Detail = detail
	t.emit(e)
}

// formatRacks renders a rack set as "r0 r2 r5".
func formatRacks(racks []int) string {
	b := make([]byte, 0, 4*len(racks))
	for i, r := range racks {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, 'r')
		b = appendInt(b, int64(r))
	}
	return string(b)
}
