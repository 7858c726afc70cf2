// Package snapshot defines the versioned, deterministic serialization of a
// complete mid-flight simulation: everything needed to reconstitute a run
// at an exact event index and prove the resumed run indistinguishable from
// an uninterrupted one.
//
// A Snapshot has three sections. Spec is the run's full input — cluster
// shape, scheduler, plan, jobs, every fault schedule, every option scalar —
// from which a runtime can be rebuilt from scratch. Meta pins the capture
// point (event index and simulated time). State is a deep export of every
// piece of observable simulation state at that point: the DES clock and
// pending event set, the RNG draw count, job/task/attempt lifecycle,
// network flows and link capacities, and the DFS block layout.
//
// Restore is replay-based: because a run is a pure function of its Spec
// (the determinism contract pinned since PR 1), the runtime rebuilds from
// Spec, re-fires exactly Meta.EventIndex events, and then audits the
// replayed live state field-by-field against the captured State — any
// mismatch is a hard error and an invariant-monitor violation, never a
// silent divergence. Closures (event callbacks, completion hooks) are
// therefore never serialized, and observer attachments (tracer, probe) are
// deliberately outside the snapshot: tracing must not perturb a run, so it
// must not perturb a snapshot either.
//
// Determinism obligations: encoding is canonical — struct field order,
// sorted keys, shortest round-trip floats, exactly the bytes
// encoding/json produces (the plan codec writes them itself, and
// encoding/json remains the decode path for errors and non-canonical
// input; see codec.go) — so equal states encode to equal bytes.
package snapshot

import (
	"corral/internal/dfs"
	"corral/internal/job"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/topology"
)

// Version is the current snapshot schema version. Decode rejects any other
// version outright: a newer writer's snapshot must fail loudly, never
// partially restore.
const Version = 1

// Snapshot is one captured mid-flight simulation.
type Snapshot struct {
	Version int
	Meta    Meta
	Spec    Spec
	State   State
}

// Meta pins where in the run the snapshot was taken.
type Meta struct {
	// EventIndex is the number of DES events fired before capture; restore
	// replays exactly this many events.
	EventIndex uint64
	// SimTime is the simulated time at capture, seconds.
	SimTime float64
	Seed    int64
	// Scheduler and Label identify the run for inspection tools.
	Scheduler string
	Label     string
}

// The fault schedules a run injects. The runtime uses these types
// directly (runtime.Failure and the others are aliases), so a Spec
// records its run's schedules as plain slice copies.

// Failure kills one machine at a point in simulated time. A positive
// Downtime makes the failure transient: the machine recovers (slots and
// disk) at At+Downtime. Zero means the machine never comes back.
type Failure struct {
	At       float64
	Machine  int
	Downtime float64
}

// LinkFault rescales one rack's uplink and downlink capacity at a point in
// simulated time. Factor 1 restores the full topology capacity; 0 fails
// the links outright (flows crossing them park until a later fault with a
// positive factor). Faults for the same rack apply in time order; the
// last one wins.
type LinkFault struct {
	At     float64
	Rack   int
	Factor float64
}

// AMFailure kills job JobID's application master at a point in simulated
// time. A failure while the job is unsubmitted, already terminal, or
// already restarting is absorbed.
type AMFailure struct {
	At    float64
	JobID int
}

// Corruption silently corrupts one DFS block replica held on Machine at a
// point in simulated time. The replica is chosen deterministically from
// the runtime's seeded rng among blocks that keep at least one clean live
// replica elsewhere (a scrubbed DFS never lets silent corruption eat the
// last copy; modelling that would just wedge the read forever).
type Corruption struct {
	At      float64
	Machine int
}

// Spec is the complete run input: rebuilding a runtime from a Spec and
// replaying is what Restore does. Observers (Probe, Trace) and a custom
// Network policy instance are not part of the Spec — policies are recorded by Name and observers are reattached by the
// resumer.
type Spec struct {
	Topology  topology.Config
	Scheduler string
	// Policy names the bandwidth-sharing policy ("" selects the default
	// max-min allocator; "maxmin", "maxmin-grouped" and
	// "maxmin-incremental" all restore as that allocator).
	Policy string
	// FlowEpoch is a wire field of a removed recompute-batching knob. It is
	// kept so decoding stays strict and every existing snapshot still
	// decodes and re-encodes byte for byte; restore rejects any value but
	// zero, which is what every writer now records.
	FlowEpoch float64
	Seed      int64
	Plan      *planner.Plan
	Jobs      []*job.Job

	BlockSize      float64
	DelayNodeLocal int
	DelayRackLocal int
	// OutputReplication, Heartbeat, AdhocShare, StragglerSlowdown,
	// SpeculationThreshold, DisableReReplication, MaxTaskAttempts,
	// RetryBackoff, BlacklistThreshold, BlacklistCooldown, MaxAMAttempts,
	// AMRestartDelay and MaxReplansPerWindow record fixed runtime
	// parameters (3, or 1 with InMemoryInput; 1 s; 0.5; 6; 2; false; 4;
	// 1 s; 3; 30 s; 2; 5 s; 1, or 0 without a ReplanWindow). Writers
	// record exactly those values and restore rejects any other.
	OutputReplication    int
	Heartbeat            float64
	ReplanOnFailure      bool
	DisableReReplication bool
	StragglerFraction    float64
	StragglerSlowdown    float64
	Speculation          bool
	SpeculationThreshold float64
	AdhocShare           float64
	RemoteStorageInput   bool
	InMemoryInput        bool
	TaskFailureProb      float64
	MaxTaskAttempts      int
	RetryBackoff         float64
	BlacklistThreshold   int
	BlacklistCooldown    float64
	MaxAMAttempts        int
	AMRestartDelay       float64

	// Overload hardening (PR 8, additive): budgeted planning, replan-storm
	// suppression and admission control. Pre-PR-8 snapshots decode these to
	// zero — exactly the values that disable all three features — so old
	// snapshots restore with unchanged semantics.
	PlannerBudget       float64
	ReplanWindow        float64
	MaxReplansPerWindow int
	AdmissionLimit      int
	AdmissionQueueCap   int

	FailedMachines []int
	Failures       []Failure
	LinkFaults     []LinkFault
	AMFailures     []AMFailure
	Corruptions    []Corruption
}

// State is the deep export of every piece of observable simulation state.
type State struct {
	DES DESState
	// RNGDraws counts values drawn from the run's single seeded RNG stream
	// (shared by the runtime and the DFS) — replaying the same events must
	// consume exactly the same draws.
	RNGDraws uint64
	Runtime  RuntimeState
	Net      *netsim.State
	DFS      *dfs.StoreState
}

// DESState is the simulator core: clock, counters and the pending event
// set (firing times and FIFO sequence numbers; callbacks are rebuilt by
// replay).
type DESState struct {
	Now     float64
	Fired   uint64
	Seq     uint64
	Pending []PendingEvent
}

// PendingEvent is one queued DES event, sorted by (At, Seq).
type PendingEvent struct {
	At       float64
	Seq      uint64
	Canceled bool
}

// RuntimeState is the resource-manager and application-master layer.
type RuntimeState struct {
	FreeSlots       []int
	Dead            []bool
	DeadCount       int
	MachineOrder    []int
	Blacklisted     []bool
	MachineFailures []int
	FailedJobs      int
	RackLinkFactor  []float64
	// RecoverAt is the scheduled recovery time per machine; -1 encodes
	// "no recovery scheduled" (+Inf in memory, which JSON cannot carry).
	RecoverAt       []float64
	RepairBytes     float64
	Replans         int
	Active          int
	SWLoad          []int
	CoflowID        int64
	DispatchPending bool
	RetryPending    bool
	Declined        bool
	RunningPlanned  int
	RunningAdhoc    int
	HaveAdhoc       bool
	HavePlanned     bool
	LastRepairDone  float64
	// Overload-hardening state (PR 8, additive). Legacy runs never touch
	// any of it, so pre-PR-8 snapshots' zero values audit clean on restore:
	// ReplanCooldown in particular stores 0 for the baseline factor of 1
	// and only escalates when suppression is enabled.
	ReplansSuppressed   int
	DegradedFull        int
	DegradedIncremental int
	DegradedGreedy      int
	ReplanWindowEnd     float64
	ReplansInWindow     int
	ReplanCooldown      int
	ReplanPending       bool
	Admitted            int
	Deferred            int
	Shed                int
	MaxAdmissionQueue   int
	// AdmissionQueue holds the job IDs parked in the admission queue, in
	// FIFO order.
	AdmissionQueue []int
	Repairs        []RepairState
	Jobs           []JobState
	Running        []AttemptState
}

// RepairState is one re-replication operation, in daemon start order. The
// block is identified by its size and endpoints (block pointers cannot
// serialize); the DFS section carries the full replica layout.
type RepairState struct {
	Src      int
	Dst      int
	Slot     int
	Bytes    float64
	Done     bool
	Canceled bool
}

// JobState is one job's application-master state.
type JobState struct {
	ID         int
	Submitted  bool
	Completion float64
	Failed     bool
	FailReason string
	AMDown     bool
	AMAttempt  int
	AMFailures int
	Skips      int
	// Constrained distinguishes an empty rack constraint from "none"
	// (allowedRacks == nil means unconstrained placement).
	Constrained  bool
	AllowedRacks []int
	// HasAssignment/AssignedRacks/Priority mirror the planner assignment.
	HasAssignment bool
	AssignedRacks []int
	Priority      int
	TasksLaunched int
	TaskSeconds   float64
	ReduceSeconds []float64
	RacksTouched  []int // sorted
	StagesLeft    int
	Stages        []StageState
}

// StageState is one DAG stage's execution state.
type StageState struct {
	Phase            int
	Coflow           int64
	RemoteStorage    bool
	UpstreamMachines []int
	PendingMaps      int
	MapsDone         int
	MapsOnRack       []int
	MapsOnMachine    []MachineCount // sorted by machine
	// ByMachine/ByRack are the locality queues, sorted by key. Queue
	// contents include lazily-cleaned stale entries: future pops depend on
	// them, so equality must too.
	ByMachine      []TaskQueue
	ByRack         []TaskQueue
	AnyPref        []int
	Anywhere       []int
	Maps           []TaskState
	Reduces        []TaskState
	ReduceQ        []int
	ReducesDone    int
	ReduceMachines []int
}

// MachineCount is one (machine, count) pair.
type MachineCount struct {
	Machine int
	Count   int
}

// TaskQueue is one locality-queue bucket: the key (machine or rack index)
// and the queued task indexes in stored order.
type TaskQueue struct {
	Key   int
	Tasks []int
}

// TaskState is one logical task's lifecycle state.
type TaskState struct {
	Assigned   bool
	Speculated bool
	Attempts   int
	DoneOn     int
	SrcMachine int     // maps only; -1 otherwise
	Bytes      float64 // maps only
}

// AttemptState is one in-flight task attempt, in (machine index, tracking
// order) capture order.
type AttemptState struct {
	Machine  int
	JobID    int
	Stage    int
	Role     string // "map" or "reduce"
	Task     int
	Attempts int
	Started  float64
	NoSpec   bool
	NFlows   int
	NEvents  int
}
