package runtime

// Snapshot/restore: capture a run mid-flight as a snapshot.Snapshot and
// reconstitute it later, continuing to an identical Result and trace.
//
// The DES heap stores closures, which cannot serialize. Restore is
// therefore replay-based, leaning on the determinism contract every PR
// since the first has pinned: a run is a pure function of (Options, jobs,
// Seed). A snapshot records the full run input (Spec), the capture point
// (Meta.EventIndex) and a deep export of all observable state (State).
// Resume rebuilds the runtime from Spec, re-fires exactly EventIndex
// events, audits the replayed live state field-by-field against the
// captured State — any mismatch is a hard error and an invariant-monitor
// violation — and then runs to completion. Because replay re-emits every
// event from time zero, a tracer attached on resume reproduces the full
// run's trace byte for byte, which is what the crash-resume equivalence
// harness (internal/experiments/resume.go) asserts.
//
// Observer attachments (Probe, Trace) are never part of a snapshot:
// tracing and probing must not perturb a run, so they must not perturb a
// snapshot either. Resumers reattach them via ResumeOptions.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"corral/internal/job"
	"corral/internal/netsim"
	"corral/internal/snapshot"
	"corral/internal/trace"
)

// rngLen and rngTap are the lags of math/rand's additive lagged
// Fibonacci generator: after its first rngLen outputs, output n is
// x[n-rngLen] + x[n-rngTap] (mod 2^64).
const (
	rngLen = 607
	rngTap = 273
)

// countingSource is the runtime's seeded RNG stream: exactly the values
// rand.NewSource(seed) would produce, with every draw counted. The draw
// count is observable state: a replayed run must consume exactly as many
// values as the original.
//
// math/rand only seeds it. The first rngLen outputs of rand.NewSource(seed)
// fill ring; output n lives at ring[n%rngLen], and refill advances the
// whole ring by rngLen outputs with the generator's own recurrence. Reads
// are then an array load and an index bump, with no interface call and no
// per-draw feed/tap bookkeeping.
type countingSource struct {
	ring  [rngLen]uint64
	pos   uint // ring index of the next output; rngLen means refill first
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	c := &countingSource{}
	c.Seed(seed)
	return c
}

// Seed restarts the stream at rand.NewSource(seed)'s first output.
func (c *countingSource) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range c.ring {
		c.ring[i] = src.Uint64()
	}
	c.pos, c.draws = 0, 0
}

// refill replaces the ring's outputs n-rngLen..n-1 with outputs
// n..n+rngLen-1, the next of which is then ring[0]; the caller resets its
// position. Output n+k is x[n+k-rngLen] + x[n+k-rngTap]: the old ring[k]
// plus, for k < rngTap, the not yet replaced ring[k+rngLen-rngTap], and
// for k >= rngTap the already replaced ring[k-rngTap].
//
//corral:hotpath
func (c *countingSource) refill() {
	r := &c.ring
	for k := 0; k < rngTap; k++ {
		r[k] += r[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		r[k] += r[k-rngTap]
	}
}

func (c *countingSource) Uint64() uint64 {
	pos := c.pos
	if pos >= rngLen {
		c.refill()
		pos = 0
	}
	c.pos = pos + 1
	c.draws++
	return c.ring[pos]
}

func (c *countingSource) Int63() int64 {
	return int64(c.Uint64() & (1<<63 - 1))
}

// CheckpointTarget names one point to snapshot at: after EventIndex fired
// events when EventIndex > 0, otherwise at the first event boundary whose
// simulated time reaches SimTime. Meta.EventIndex always records the
// actual (event-exact) capture point.
type CheckpointTarget struct {
	EventIndex uint64
	SimTime    float64
}

func (t CheckpointTarget) String() string {
	if t.EventIndex > 0 {
		return fmt.Sprintf("ev:%d", t.EventIndex)
	}
	return fmt.Sprintf("t:%g", t.SimTime)
}

// ResumeOptions reattaches the observer hooks a snapshot deliberately
// excludes.
type ResumeOptions struct {
	Probe trace.Observer
	Trace *trace.Tracer
}

// CaptureAt runs until the target and returns the snapshot taken there,
// tearing the run down immediately after. A target the drained simulation
// never reached is an error naming it.
func CaptureAt(opts Options, jobs []*job.Job, target CheckpointTarget) (*snapshot.Snapshot, error) {
	if target.EventIndex == 0 && !(target.SimTime >= 0) {
		return nil, fmt.Errorf("runtime: invalid snapshot target %v: SimTime must be non-negative", target)
	}
	rt, err := newRuntime(opts, jobs)
	if err != nil {
		return nil, err
	}
	spec, err := rt.buildSpec()
	if err != nil {
		return nil, err
	}
	rt.start()
	for rt.sim.Step() {
		if target.EventIndex > 0 {
			if rt.sim.Fired() < target.EventIndex {
				continue
			}
		} else if float64(rt.sim.Now()) < target.SimTime {
			continue
		}
		return rt.buildSnapshot(spec), nil
	}
	res, err := rt.finish()
	if err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("runtime: snapshot target %v not reached: simulation ended after %d events at t=%g",
		target, res.Events, float64(rt.sim.Now()))
}

// Resume reconstitutes a snapshotted run and continues it to completion.
// The runtime is rebuilt from the snapshot's Spec and deterministically
// replayed to Meta.EventIndex; the replayed state is then audited
// field-by-field against the snapshot's State section. Any mismatch —
// a corrupted snapshot, or a build whose semantics drifted from the
// snapshotting build — is traced as an audit failure (an invariant
// violation for an attached monitor) and returned as an error; the run
// never continues from unverified state.
func Resume(snap *snapshot.Snapshot, ro ResumeOptions) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("runtime: resuming nil snapshot")
	}
	if snap.Version != snapshot.Version {
		return nil, fmt.Errorf("runtime: snapshot version %d not supported (this build reads version %d)", snap.Version, snapshot.Version)
	}
	opts, jobs, err := optionsFromSpec(&snap.Spec)
	if err != nil {
		return nil, err
	}
	opts.Probe = ro.Probe
	opts.Trace = ro.Trace
	rt, err := newRuntime(opts, jobs)
	if err != nil {
		return nil, err
	}
	rt.start()
	for rt.sim.Fired() < snap.Meta.EventIndex {
		if !rt.sim.Step() {
			err := fmt.Errorf("snapshot restore audit: event queue drained after %d events, snapshot taken at %d — spec does not reproduce the captured run",
				rt.sim.Fired(), snap.Meta.EventIndex)
			rt.tr.Audit(float64(rt.sim.Now()), err.Error())
			return nil, err
		}
	}
	if diffs := snapshot.DiffStates(rt.captureState(), &snap.State); len(diffs) > 0 {
		err := fmt.Errorf("snapshot restore audit: replayed state diverges from captured state in %d field(s): %s",
			len(diffs), diffs[0])
		rt.tr.Audit(float64(rt.sim.Now()), err.Error())
		return nil, err
	}
	// Restored state verified; re-run the DFS byte-conservation audit on it
	// before continuing, so a monitor attached on resume re-checks the
	// restored world, not just the events that follow.
	if rt.opts.Probe != nil {
		if err := rt.store.AuditAccounting(); err != nil {
			rt.tr.Audit(float64(rt.sim.Now()), err.Error())
		}
	}
	rt.sim.Run()
	return rt.finish()
}

// buildSpec serializes the run's full input. It fails on the one input
// that cannot round-trip: a custom network policy instance.
func (rt *runtime) buildSpec() (snapshot.Spec, error) {
	o := rt.opts
	policy := ""
	if o.Network != nil {
		policy = o.Network.Name()
		if _, err := policyByName(policy); err != nil {
			return snapshot.Spec{}, fmt.Errorf("runtime: cannot snapshot run with custom network policy %q", policy)
		}
	}
	spec := snapshot.Spec{
		Topology:  o.Cluster,
		Scheduler: o.Scheduler.String(),
		Policy:    policy,
		Seed:      o.Seed,
		Plan:      o.Plan,

		BlockSize:            o.BlockSize,
		DelayNodeLocal:       o.DelayNodeLocal,
		DelayRackLocal:       o.DelayRackLocal,
		OutputReplication:    outputReplicas(o.InMemoryInput),
		Heartbeat:            heartbeat,
		ReplanOnFailure:      o.ReplanOnFailure,
		StragglerFraction:    o.StragglerFraction,
		StragglerSlowdown:    stragglerSlowdown,
		Speculation:          o.Speculation,
		SpeculationThreshold: speculationThreshold,
		AdhocShare:           adhocShare,
		RemoteStorageInput:   o.RemoteStorageInput,
		InMemoryInput:        o.InMemoryInput,
		TaskFailureProb:      o.TaskFailureProb,
		MaxTaskAttempts:      maxTaskAttempts,
		RetryBackoff:         retryBackoff,
		BlacklistThreshold:   blacklistThreshold,
		BlacklistCooldown:    blacklistCooldown,
		MaxAMAttempts:        maxAMAttempts,
		AMRestartDelay:       amRestartDelay,

		PlannerBudget:       o.PlannerBudget,
		ReplanWindow:        o.ReplanWindow,
		MaxReplansPerWindow: specReplansPerWindow(o.ReplanWindow),
		AdmissionLimit:      o.AdmissionLimit,
		AdmissionQueueCap:   o.AdmissionQueueCap,

		FailedMachines: append([]int(nil), o.FailedMachines...),
		Failures:       append([]Failure(nil), o.Failures...),
		LinkFaults:     append([]LinkFault(nil), o.LinkFaults...),
		AMFailures:     append([]AMFailure(nil), o.AMFailures...),
		Corruptions:    append([]Corruption(nil), o.Corruptions...),
	}
	for _, je := range rt.jobs {
		spec.Jobs = append(spec.Jobs, je.job)
	}
	return spec, nil
}

// policyByName is the inverse of Policy.Name for the bundled policies.
// "" selects the default. Every max-min name maps to a fresh instance of
// the one max-min allocator: "maxmin" and "maxmin-grouped" name the
// per-flow and grouped allocators it replaced, whose rates it reproduces
// bit for bit, so snapshots recorded under them resume equivalently.
func policyByName(name string) (netsim.Policy, error) {
	switch name {
	case "":
		return nil, nil
	case "maxmin", "maxmin-grouped", "maxmin-incremental":
		return netsim.NewIncrementalMaxMin(), nil
	case "varys":
		return netsim.Varys{}, nil
	}
	return nil, fmt.Errorf("runtime: unknown network policy %q in snapshot spec", name)
}

// fixedSpecField pairs a Spec field that records a fixed runtime parameter
// with the one value writers record for it.
type fixedSpecField struct {
	name      string
	got, want any
}

// fixedSpecFields lists every fixed parameter a Spec records. Two depend
// on the Spec's own inputs: the output replica count on InMemoryInput,
// and the replan cap on whether storm suppression is on at all.
func fixedSpecFields(s *snapshot.Spec) []fixedSpecField {
	return []fixedSpecField{
		{"OutputReplication", s.OutputReplication, outputReplicas(s.InMemoryInput)},
		{"Heartbeat", s.Heartbeat, heartbeat},
		{"AdhocShare", s.AdhocShare, adhocShare},
		{"StragglerSlowdown", s.StragglerSlowdown, stragglerSlowdown},
		{"SpeculationThreshold", s.SpeculationThreshold, speculationThreshold},
		{"DisableReReplication", s.DisableReReplication, false},
		{"MaxTaskAttempts", s.MaxTaskAttempts, maxTaskAttempts},
		{"RetryBackoff", s.RetryBackoff, retryBackoff},
		{"BlacklistThreshold", s.BlacklistThreshold, blacklistThreshold},
		{"BlacklistCooldown", s.BlacklistCooldown, blacklistCooldown},
		{"MaxAMAttempts", s.MaxAMAttempts, maxAMAttempts},
		{"AMRestartDelay", s.AMRestartDelay, amRestartDelay},
		{"MaxReplansPerWindow", s.MaxReplansPerWindow, specReplansPerWindow(s.ReplanWindow)},
	}
}

// specReplansPerWindow is the MaxReplansPerWindow a Spec records: the
// fixed cap when replan-storm suppression is on, 0 when it is off.
func specReplansPerWindow(window float64) int {
	if window > 0 {
		return maxReplansPerWindow
	}
	return 0
}

// optionsFromSpec rebuilds the run input a snapshot's Spec records.
func optionsFromSpec(spec *snapshot.Spec) (Options, []*job.Job, error) {
	kind, err := ParseKind(spec.Scheduler)
	if err != nil {
		return Options{}, nil, err
	}
	policy, err := policyByName(spec.Policy)
	if err != nil {
		return Options{}, nil, err
	}
	if spec.FlowEpoch != 0 {
		return Options{}, nil, fmt.Errorf("runtime: snapshot spec sets FlowEpoch %g; flow-epoch batching was removed, so only FlowEpoch 0 restores", spec.FlowEpoch)
	}
	for _, f := range fixedSpecFields(spec) {
		if f.got != f.want {
			return Options{}, nil, fmt.Errorf("runtime: snapshot spec sets %s %v; it is fixed, so only %v restores", f.name, f.got, f.want)
		}
	}
	opts := Options{
		Cluster:   spec.Topology,
		Scheduler: kind,
		Network:   policy,
		Seed:      spec.Seed,
		Plan:      spec.Plan,

		BlockSize:          spec.BlockSize,
		DelayNodeLocal:     spec.DelayNodeLocal,
		DelayRackLocal:     spec.DelayRackLocal,
		ReplanOnFailure:    spec.ReplanOnFailure,
		StragglerFraction:  spec.StragglerFraction,
		Speculation:        spec.Speculation,
		RemoteStorageInput: spec.RemoteStorageInput,
		InMemoryInput:      spec.InMemoryInput,
		TaskFailureProb:    spec.TaskFailureProb,

		PlannerBudget:     spec.PlannerBudget,
		ReplanWindow:      spec.ReplanWindow,
		AdmissionLimit:    spec.AdmissionLimit,
		AdmissionQueueCap: spec.AdmissionQueueCap,

		FailedMachines: append([]int(nil), spec.FailedMachines...),
		Failures:       append([]Failure(nil), spec.Failures...),
		LinkFaults:     append([]LinkFault(nil), spec.LinkFaults...),
		AMFailures:     append([]AMFailure(nil), spec.AMFailures...),
		Corruptions:    append([]Corruption(nil), spec.Corruptions...),
	}
	return opts, spec.Jobs, nil
}

// buildSnapshot assembles the full snapshot at the current event boundary.
func (rt *runtime) buildSnapshot(spec snapshot.Spec) *snapshot.Snapshot {
	return &snapshot.Snapshot{
		Version: snapshot.Version,
		Meta: snapshot.Meta{
			EventIndex: rt.sim.Fired(),
			SimTime:    float64(rt.sim.Now()),
			Seed:       rt.opts.Seed,
			Scheduler:  rt.opts.Scheduler.String(),
			Label:      fmt.Sprintf("sim/%s/seed%d", rt.opts.Scheduler, rt.opts.Seed),
		},
		Spec:  spec,
		State: *rt.captureState(),
	}
}

// captureState deep-exports every piece of observable simulation state.
// Must be called between event firings (a clean heap boundary).
func (rt *runtime) captureState() *snapshot.State {
	st := &snapshot.State{
		DES: snapshot.DESState{
			Now:   float64(rt.sim.Now()),
			Fired: rt.sim.Fired(),
			Seq:   rt.sim.Seq(),
		},
		RNGDraws: rt.rngSrc.draws,
		Net:      rt.net.CaptureState(),
		DFS:      rt.store.CaptureState(),
	}
	for _, e := range rt.sim.PendingEvents() {
		st.DES.Pending = append(st.DES.Pending, snapshot.PendingEvent{
			At: float64(e.At), Seq: e.Seq, Canceled: e.Canceled,
		})
	}
	r := &st.Runtime
	r.FreeSlots = append([]int(nil), rt.freeSlots...)
	r.Dead = append([]bool(nil), rt.dead...)
	r.DeadCount = rt.deadCount
	r.MachineOrder = make([]int, len(rt.machineOrder))
	for i, m := range rt.machineOrder {
		r.MachineOrder[i] = int(m)
	}
	r.Blacklisted = append([]bool(nil), rt.blacklisted...)
	r.MachineFailures = append([]int(nil), rt.machineFailures...)
	r.FailedJobs = rt.failedJobs
	r.RackLinkFactor = append([]float64(nil), rt.rackLinkFactor...)
	r.RecoverAt = make([]float64, len(rt.recoverAt))
	for i, v := range rt.recoverAt {
		if math.IsInf(v, 1) {
			v = -1 // JSON cannot carry +Inf; -1 encodes "none scheduled"
		}
		r.RecoverAt[i] = v
	}
	r.RepairBytes = rt.repairBytes
	r.Replans = rt.replans
	r.Active = rt.active
	r.SWLoad = append([]int(nil), rt.swLoad...)
	r.CoflowID = int64(rt.coflowID)
	r.DispatchPending = rt.dispatchPending
	r.RetryPending = rt.retryPending
	r.Declined = rt.declined
	r.RunningPlanned = rt.runningPlanned
	r.RunningAdhoc = rt.runningAdhoc
	r.HaveAdhoc = rt.haveAdhoc
	r.HavePlanned = rt.havePlanned
	r.LastRepairDone = rt.lastRepairDone
	r.ReplansSuppressed = rt.replansSuppressed
	r.DegradedFull = rt.degradations.Full
	r.DegradedIncremental = rt.degradations.Incremental
	r.DegradedGreedy = rt.degradations.Greedy
	r.ReplanWindowEnd = rt.replanWindowEnd
	r.ReplansInWindow = rt.replansInWindow
	r.ReplanCooldown = rt.replanCooldown
	r.ReplanPending = rt.replanPending
	r.Admitted = rt.admitted
	r.Deferred = rt.deferred
	r.Shed = rt.shed
	r.MaxAdmissionQueue = rt.maxAdmissionQ
	for _, je := range rt.admissionQueue {
		r.AdmissionQueue = append(r.AdmissionQueue, je.job.ID)
	}
	for _, op := range rt.repairList {
		r.Repairs = append(r.Repairs, snapshot.RepairState{
			Src: op.rep.Src, Dst: op.rep.Dst, Slot: op.rep.Slot,
			Bytes: op.rep.Block.Size, Done: op.done, Canceled: op.canceled,
		})
	}
	for _, je := range rt.jobs {
		r.Jobs = append(r.Jobs, captureJob(je))
	}
	for m := 0; m < len(rt.freeSlots); m++ {
		for _, tk := range rt.running[m] {
			a := snapshot.AttemptState{
				Machine: m,
				JobID:   tk.je.job.ID,
				Stage:   tk.st.idx,
				Started: float64(tk.started),
				NoSpec:  tk.noSpec,
				NFlows:  len(tk.flows),
				NEvents: len(tk.events),
			}
			if tk.mapT != nil {
				a.Role, a.Task, a.Attempts = "map", tk.mapT.index, tk.mapT.attempts
			} else {
				a.Role, a.Task, a.Attempts = "reduce", tk.redT.index, tk.redT.attempts
			}
			r.Running = append(r.Running, a)
		}
	}
	return st
}

func captureJob(je *jobExec) snapshot.JobState {
	js := snapshot.JobState{
		ID:            je.job.ID,
		Submitted:     je.submitted,
		Completion:    je.completion,
		Failed:        je.failed,
		FailReason:    je.failReason,
		AMDown:        je.amDown,
		AMAttempt:     je.amAttempt,
		AMFailures:    je.amFailures,
		Skips:         je.skips,
		Constrained:   je.allowedRacks != nil,
		AllowedRacks:  append([]int(nil), je.allowedRacks...),
		TasksLaunched: je.tasksLaunched,
		TaskSeconds:   je.taskSeconds,
		ReduceSeconds: append([]float64(nil), je.reduceSeconds...),
		StagesLeft:    je.stagesLeft,
	}
	if je.assignment != nil {
		js.HasAssignment = true
		js.AssignedRacks = append([]int(nil), je.assignment.Racks...)
		js.Priority = je.assignment.Priority
	}
	for rk, touched := range je.racksTouched {
		if touched {
			js.RacksTouched = append(js.RacksTouched, rk) // ascending by construction
		}
	}
	for _, st := range je.stages {
		js.Stages = append(js.Stages, captureStage(st))
	}
	return js
}

func captureStage(st *stageExec) snapshot.StageState {
	ss := snapshot.StageState{
		Phase:            int(st.phase),
		Coflow:           int64(st.coflow),
		RemoteStorage:    st.remoteStorage,
		UpstreamMachines: append([]int(nil), st.upstreamMachines...),
		PendingMaps:      st.pendingMapCount,
		MapsDone:         st.mapsDone,
		MapsOnRack:       append([]int(nil), st.mapsOnRack...),
		ReducesDone:      st.reducesDone,
		ReduceMachines:   append([]int(nil), st.reduceMachines...),
	}
	for m := range st.mapsOnMachine {
		ss.MapsOnMachine = append(ss.MapsOnMachine, snapshot.MachineCount{Machine: m, Count: st.mapsOnMachine[m]})
	}
	sort.Slice(ss.MapsOnMachine, func(i, j int) bool { return ss.MapsOnMachine[i].Machine < ss.MapsOnMachine[j].Machine })
	ss.ByMachine = captureQueues(st.byMachine)
	ss.ByRack = captureQueues(st.byRack)
	for _, t := range st.anyPref {
		ss.AnyPref = append(ss.AnyPref, t.index)
	}
	for _, t := range st.anywhere {
		ss.Anywhere = append(ss.Anywhere, t.index)
	}
	for _, t := range st.maps {
		ss.Maps = append(ss.Maps, snapshot.TaskState{
			Assigned:   t.assigned,
			Speculated: t.speculated,
			Attempts:   t.attempts,
			DoneOn:     t.doneOn,
			SrcMachine: t.srcMachine,
			Bytes:      t.bytes,
		})
	}
	for _, rT := range st.reduces {
		ss.Reduces = append(ss.Reduces, snapshot.TaskState{
			Speculated: rT.speculated,
			Attempts:   rT.attempts,
			DoneOn:     rT.doneOn,
			SrcMachine: -1,
		})
	}
	for _, rT := range st.reduceQ {
		ss.ReduceQ = append(ss.ReduceQ, rT.index)
	}
	return ss
}

// captureQueues exports a locality-queue map sorted by key. Stale entries
// (tasks already assigned through another bucket, awaiting lazy cleanup)
// are included: future pops depend on them.
func captureQueues(q map[int][]*mapTask) []snapshot.TaskQueue {
	keys := make([]int, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]snapshot.TaskQueue, 0, len(keys))
	for _, k := range keys {
		tq := snapshot.TaskQueue{Key: k}
		for _, t := range q[k] {
			tq.Tasks = append(tq.Tasks, t.index)
		}
		out = append(out, tq)
	}
	return out
}
