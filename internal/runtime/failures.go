package runtime

// Failure handling and straggler mitigation.
//
// Mid-run machine failures (§3.1, §7 "Dealing with failures"): when a
// machine dies, its running tasks are aborted — their pending timers and
// network flows are canceled — and requeued for rescheduling elsewhere.
// DFS replicas on dead machines become unreadable (the remaining replicas
// keep the data available, as the paper's 2+1 replica spread guarantees)
// and are re-replicated onto survivors by the repair daemon (repair.go).
// If a majority of the machines in a planned job's rack set are dead, the
// job's placement constraints are dropped so it can use any available
// resources — or, with Options.ReplanOnFailure, the planner is re-invoked
// with commitments for unaffected running jobs (replan.go).
//
// Failures are transient when Failure.Downtime > 0: the machine recovers
// at At+Downtime, rejoining the slot pool, and its disk is treated as
// intact — replicas not yet repaired away become readable again.
//
// Link faults (LinkFault) degrade or fail a rack's uplink+downlink at a
// simulated time; in-flight flows re-share via the netsim recompute, and
// flows crossing a fully failed link park until a later fault restores it.
//
// Simplification (documented in DESIGN.md): outputs of *completed* map
// tasks on a failed machine are not re-executed — only in-flight work is
// lost. Re-running completed upstream work would require per-partition
// shuffle bookkeeping that the rack-aggregated flow model intentionally
// avoids. (Transient recovery narrows the window this matters: a
// recovered machine's map outputs are served again once it is back.)
//
// Stragglers (§3.3 lists "failures, outliers" as the runtime factors the
// offline model ignores): with probability StragglerFraction a task's
// compute phase runs stragglerSlowdown times slower. With speculation
// enabled, a watchdog fires once the task has run speculationThreshold
// times its expected duration and relaunches it — modelling the backup
// copy overtaking the straggler. Each task gets at most one speculative
// relaunch, and the relaunched attempt runs at nominal speed (the backup
// copy that overtook the straggler), so speculation always terminates.

import (
	"fmt"
	"math"

	"corral/internal/des"
	"corral/internal/netsim"
	"corral/internal/snapshot"
	"corral/internal/topology"
	"corral/internal/trace"
)

// The fault-schedule types are defined once, in the snapshot schema, so
// a snapshot Spec records a run's schedules as plain slice copies. See
// there for their semantics.
type (
	Failure    = snapshot.Failure
	LinkFault  = snapshot.LinkFault
	AMFailure  = snapshot.AMFailure
	Corruption = snapshot.Corruption
)

// runningTask is one in-flight task attempt. It steps through the phases
// of attemptPhase; step advances it when the last flow of a fetch or write
// lands or when its compute timer fires. All its flows share one completion
// callback (onFlow) and all its timers one firing callback (onTimer), both
// bound once per object, when newRunningTask first makes it.
//
// Attempt objects are recycled: finishAttempt and abort retire an attempt
// onto the runtime's free list, and launch reuses it. By then no callback
// of the attempt is queued: finishTracking has canceled its timers, and
// its flows have all landed (finish) or been canceled (abort). A canceled
// des event never fires, and a canceled flow's done never runs, loopback
// flows and flows of the same completion batch included. flowDone and
// timerFired panic if a callback ever reaches a retired attempt.
type runningTask struct {
	rt      *runtime
	je      *jobExec
	st      *stageExec
	mapT    *mapTask    // nil for reduce attempts
	redT    *reduceTask // nil for map attempts
	machine int
	started des.Time
	phase   attemptPhase
	aborted bool
	done    bool
	retired bool // on the free list, until launch reuses it
	noSpec  bool // speculative relaunch: nominal speed, no watchdog
	// timers holds the armed timers by kind (the zero Handle when not
	// armed); flows the transfers still in flight, so its length is the
	// phase's outstanding flow count.
	timers  [numTimers]des.Handle
	flows   []*netsim.Flow
	onFlow  func(*netsim.Flow) // flowDone
	onTimer func()             // timerFired
}

// attemptPhase is a stage of an attempt's lifecycle: a map reads then
// computes; a reduce shuffles, computes and, in a terminal stage, writes
// its replicated output.
type attemptPhase uint8

const (
	phaseFetch   attemptPhase = iota // input read or shuffle in flight
	phaseCompute                     // compute timer armed
	phaseWrite                       // output write in flight
)

// The kinds of attempt timer, in the order an attempt arms them.
const (
	timerCrash   = iota // injected crash (armCrash)
	timerWatch          // speculation watchdog (computeDuration)
	timerCompute        // end of the compute phase
	numTimers
)

// ident returns the attempt's trace identity (role, task index, attempt).
func (tk *runningTask) ident() (trace.Role, int, int) {
	if tk.mapT != nil {
		return trace.RoleMap, tk.mapT.index, tk.mapT.attempts
	}
	return trace.RoleReduce, tk.redT.index, tk.redT.attempts
}

// nominal returns the attempt's compute time at nominal speed: B_M for a
// map's input, B_R for a reduce's share of the output.
func (tk *runningTask) nominal() float64 {
	if tk.mapT != nil {
		return tk.mapT.bytes / tk.st.profile.MapRate
	}
	p := tk.st.profile
	return p.OutputBytes / float64(p.ReduceTasks) / p.ReduceRate
}

// newRunningTask takes an attempt object off the free list, or makes one
// and binds its two callbacks when the list is empty. A run makes only as
// many as it ever has attempts in flight at once.
//
//corral:hotpath
func (rt *runtime) newRunningTask() *runningTask {
	if k := len(rt.tkFree) - 1; k >= 0 {
		tk := rt.tkFree[k]
		rt.tkFree = rt.tkFree[:k]
		return tk
	}
	tk := new(runningTask)
	tk.onFlow, tk.onTimer = tk.flowDone, tk.timerFired
	return tk
}

// retire puts a finished or aborted attempt on the free list. Its timers
// are canceled and it owns no flow, so nothing queued can call it back.
//
//corral:hotpath
func (rt *runtime) retire(tk *runningTask) {
	tk.retired = true
	rt.tkFree = append(rt.tkFree, tk)
}

// retiredPanic reports a callback that reached a retired attempt.
func (tk *runningTask) retiredPanic(what string) {
	role, idx, att := tk.ident()
	panic(fmt.Sprintf("runtime: %s callback reached retired attempt %d of %s %d (job %d, stage %d, machine %d)",
		what, att, role, idx, tk.je.job.ID, tk.st.idx, tk.machine))
}

// launch starts an attempt of map t or reduce rT (exactly one is set) on
// machine m: it takes the slot, registers the attempt and rolls its
// injected crash. The caller starts the fetch.
func (rt *runtime) launch(st *stageExec, t *mapTask, rT *reduceTask, m int) *runningTask {
	je := st.je
	rt.freeSlots[m]--
	rt.taskStarted(je)
	je.touchRack(rt.cluster.RackOf(m))
	tk := rt.newRunningTask()
	// A reused object keeps its callbacks and its emptied flow list.
	*tk = runningTask{rt: rt, je: je, st: st, mapT: t, redT: rT, machine: m, started: rt.sim.Now(),
		flows: tk.flows[:0], onFlow: tk.onFlow, onTimer: tk.onTimer}
	tk.noSpec = (t != nil && t.speculated) || (rT != nil && rT.speculated)
	rt.running[m] = append(rt.running[m], tk)
	role, idx, att := tk.ident()
	rt.tr.TaskStart(float64(rt.sim.Now()), role, je.job.ID, st.idx, idx, att, m)
	rt.armCrash(tk, tk.nominal())
	return tk
}

// finishTracking removes a completed or aborted attempt from the running
// set and cancels its timers (notably the speculation watchdog), so it
// leaves no dead events in the DES queue. Canceling the timer that is
// currently firing is a harmless no-op.
func (rt *runtime) finishTracking(tk *runningTask) {
	for _, h := range tk.timers {
		rt.sim.Cancel(h)
	}
	lst := rt.running[tk.machine]
	for i, other := range lst {
		if other == tk {
			lst[i] = lst[len(lst)-1]
			rt.running[tk.machine] = lst[:len(lst)-1]
			return
		}
	}
}

// arm schedules the attempt's timer of the given kind d from now.
func (tk *runningTask) arm(kind int, d des.Time) {
	tk.timers[kind] = tk.rt.sim.After(d, tk.onTimer)
}

// timerFired is the callback of every attempt timer. A crash or watchdog
// timer aborts the attempt, so a live attempt has seen neither fire, and
// timers due at one instant fire in arming order (crash, watchdog,
// compute). So the first kind armed and due by now is the one firing.
func (tk *runningTask) timerFired() {
	if tk.retired {
		tk.retiredPanic("timer")
	}
	now := tk.rt.sim.Now()
	switch {
	case tk.due(timerCrash, now):
		tk.rt.crashAttempt(tk)
	case tk.due(timerWatch, now):
		tk.rt.abortSpeculative(tk)
	default:
		tk.step()
	}
}

// due reports whether the attempt's timer of the given kind is armed for
// a time no later than now.
func (tk *runningTask) due(kind int, now des.Time) bool {
	return tk.timers[kind].Armed() && tk.timers[kind].At() <= now
}

// startFlow starts a transfer from machine src to dst owned by the
// attempt, in its stage's coflow.
func (tk *runningTask) startFlow(src, dst int, bytes float64) {
	tk.flows = append(tk.flows, tk.rt.net.Start(src, dst, bytes, tk.st.coflow, tk.je.job.ID, tk.onFlow))
}

// startPath starts a transfer over an explicit link path owned by the
// attempt, in its stage's coflow.
func (tk *runningTask) startPath(path []topology.LinkID, crossRack bool, bytes float64) {
	tk.flows = append(tk.flows, tk.rt.net.StartPath(path, crossRack, bytes, tk.st.coflow, tk.je.job.ID, tk.onFlow))
}

// flowDone is the callback of every attempt flow; the last one of a phase
// steps the attempt. It drops the attempt's reference first: under flow
// pooling (enabled by newRuntime) the *netsim.Flow is recycled once this
// returns, so a stale entry in tk.flows could alias a different, still
// active flow by the time abort cancels the list. The swap-remove leaves
// the list unordered, which Cancel does not mind.
func (tk *runningTask) flowDone(f *netsim.Flow) {
	if tk.retired {
		tk.retiredPanic("flow")
	}
	for i, other := range tk.flows {
		if other == f {
			last := len(tk.flows) - 1
			tk.flows[i] = tk.flows[last]
			tk.flows[last] = nil
			tk.flows = tk.flows[:last]
			break
		}
	}
	if len(tk.flows) == 0 {
		tk.step()
	}
}

// abort cancels the attempt's timers and flows and retires it. freeSlot
// returns the slot (false when the machine itself died). requeueDelay
// controls what happens to the work: negative drops it (the job is
// failing terminally or an AM restart will rebuild the stage), zero
// requeues it now, positive requeues it after a retry backoff. A delayed
// requeue is voided if the job reaches a terminal state — or restarts its
// AM — first.
func (rt *runtime) abort(tk *runningTask, freeSlot bool, requeueDelay des.Time) {
	if tk.aborted || tk.done {
		return
	}
	tk.aborted = true
	// Cancel and immediately forget the attempt's flows: once canceled they
	// retire at the next recompute and (under pooling) are recycled, after
	// which these references must never be used again.
	for i, f := range tk.flows {
		rt.net.Cancel(f)
		tk.flows[i] = nil
	}
	tk.flows = tk.flows[:0]
	rt.finishTracking(tk)
	rt.taskEnded(tk.je)
	role, idx, att := tk.ident()
	rt.tr.TaskAbort(float64(rt.sim.Now()), role, tk.je.job.ID, tk.st.idx, idx, att, tk.machine)
	if freeSlot {
		rt.freeSlots[tk.machine]++
	}
	je, st, t, rT := tk.je, tk.st, tk.mapT, tk.redT
	rt.retire(tk)
	if requeueDelay < 0 {
		rt.requestDispatch()
		return
	}
	// The requeue holds the task, not the retired attempt.
	gen := je.amAttempt
	requeue := func() {
		if je.done() || je.amDown || je.amAttempt != gen {
			return
		}
		if t != nil {
			rt.requeueMap(st, t)
		} else {
			st.reduceQ = append(st.reduceQ, rT)
			rt.tr.TaskQueued(float64(rt.sim.Now()), trace.RoleReduce, je.job.ID, st.idx, rT.index, rT.attempts)
		}
		rt.requestDispatch()
	}
	if requeueDelay > 0 {
		rt.sim.After(requeueDelay, requeue)
	} else {
		requeue()
	}
	rt.requestDispatch()
}

// requeueMap returns an aborted map task to its stage's pending indexes,
// skipping now-dead replica machines.
func (rt *runtime) requeueMap(st *stageExec, t *mapTask) {
	lb := &rt.locBuild
	rt.queueMap(st, t)
	for i, p := range lb.machine {
		st.byMachine.push(int(p.key), int(p.task))
		st.byRack.push(int(lb.rack[i].key), int(p.task))
	}
	lb.machine, lb.rack = lb.machine[:0], lb.rack[:0]
}

// queueMap marks t pending again and queues it: its live preferred
// machines go to rt.locBuild, for the caller to push or build, and the
// task itself to anyPref, or to anywhere when no preference is live.
func (rt *runtime) queueMap(st *stageExec, t *mapTask) {
	t.assigned = false
	st.pendingMapCount++
	// Enabled-guarded: st.je may be nil for synthetic stages in tests, so
	// even the argument expression must not run on the disabled path.
	if rt.tr.Enabled() {
		rt.tr.TaskQueued(float64(rt.sim.Now()), trace.RoleMap, st.je.job.ID, st.idx, t.index, t.attempts)
	}
	lb := &rt.locBuild
	switch {
	case t.blk != nil:
		pushed := false
		for _, m := range t.blk.Replicas {
			if rt.dead[m] {
				continue
			}
			lb.add(m, rt.cluster.RackOf(m), t.index)
			pushed = true
		}
		if pushed {
			st.anyPref = append(st.anyPref, t)
		} else {
			st.anywhere = append(st.anywhere, t)
		}
	case t.srcMachine >= 0 && !rt.dead[t.srcMachine]:
		lb.add(t.srcMachine, rt.cluster.RackOf(t.srcMachine), t.index)
		st.anyPref = append(st.anyPref, t)
	default:
		st.anywhere = append(st.anywhere, t)
	}
}

// failMachineTransient handles one scheduled Failure event: the machine
// dies now and, for transient failures, a recovery is scheduled. A failure
// hitting an already-dead machine is absorbed (its recovery, if any, was
// scheduled by the earlier failure).
func (rt *runtime) failMachineTransient(f Failure) {
	if rt.dead[f.Machine] {
		return
	}
	if f.Downtime > 0 {
		at := float64(rt.sim.Now()) + f.Downtime
		rt.recoverAt[f.Machine] = at
		m := f.Machine
		rt.sim.At(des.Time(at), func() { rt.recoverMachine(m) })
	} else {
		rt.recoverAt[f.Machine] = math.Inf(1)
	}
	rt.failMachine(f.Machine)
}

// recoverMachine brings a transiently failed machine back: slots rejoin
// the pool and replicas still recorded on it (not yet repaired away)
// become readable again — the disk survived the outage.
func (rt *runtime) recoverMachine(m int) {
	if !rt.dead[m] {
		return
	}
	rt.dead[m] = false
	rt.deadCount--
	rt.tr.MachineUp(float64(rt.sim.Now()), m)
	rt.freeSlots[m] = rt.cluster.Config.SlotsPerMachine
	rt.recoverAt[m] = math.Inf(1)
	rt.store.MachineUp(m)
	rt.requestDispatch()
}

// failMachine kills machine m at the current simulated time.
func (rt *runtime) failMachine(m int) {
	if rt.dead[m] {
		return
	}
	rt.dead[m] = true
	rt.deadCount++
	rt.tr.MachineDown(float64(rt.sim.Now()), m)
	rt.freeSlots[m] = 0
	if math.IsInf(rt.recoverAt[m], 1) || rt.recoverAt[m] <= float64(rt.sim.Now()) {
		rt.recoverAt[m] = math.Inf(1)
	}
	// Abort running attempts (slot not returned: the machine is gone).
	attempts := append([]*runningTask(nil), rt.running[m]...)
	for _, tk := range attempts {
		rt.abort(tk, false, 0)
	}
	// The DFS loses the machine's replicas; the repair daemon re-creates
	// them on survivors (repair.go).
	rt.store.MachineDown(m)
	rt.onMachineLost(m)
	// Rack-failure fallback for submitted jobs (§3.1). With replanning
	// enabled, constraints are still dropped first — the job keeps making
	// progress even if the replan fails — and then the planner is asked
	// for fresh guidelines.
	replanNeeded := false
	for _, je := range rt.jobs {
		if je.allowedRacks == nil || je.done() {
			continue
		}
		if rt.majorityDead(je.allowedRacks) {
			je.allowedRacks = nil
			if je.assignment != nil {
				replanNeeded = true
			}
		}
	}
	if replanNeeded && rt.opts.ReplanOnFailure {
		rt.requestReplan()
	}
	rt.requestDispatch()
}

// majorityDead reports whether more than half the machines of a rack set
// are dead: the §3.1 rule under which Corral drops a job's placement
// constraints.
func (rt *runtime) majorityDead(racks []int) bool {
	total, deadIn := 0, 0
	for _, r := range racks {
		lo, hi := rt.cluster.MachinesInRack(r)
		for m := lo; m < hi; m++ {
			total++
			if rt.dead[m] {
				deadIn++
			}
		}
	}
	return deadIn*2 > total
}

// applyLinkFault rescales a rack's uplink and downlink. A full failure
// (factor 0) triggers the same fallback/replan path as losing the rack's
// machines: jobs constrained to the isolated rack would otherwise stall on
// cross-rack transfers until recovery.
func (rt *runtime) applyLinkFault(lf LinkFault) {
	prev := rt.rackLinkFactor[lf.Rack]
	rt.rackLinkFactor[lf.Rack] = lf.Factor
	rt.net.SetLinkCapacityFactor(rt.cluster.RackUplink(lf.Rack), lf.Factor)
	rt.net.SetLinkCapacityFactor(rt.cluster.RackDownlink(lf.Rack), lf.Factor)
	if lf.Factor == 0 && prev > 0 {
		replanNeeded := false
		for _, je := range rt.jobs {
			if je.allowedRacks == nil || je.done() {
				continue
			}
			for _, r := range je.allowedRacks {
				if r == lf.Rack {
					je.allowedRacks = nil
					if je.assignment != nil {
						replanNeeded = true
					}
					break
				}
			}
		}
		if replanNeeded && rt.opts.ReplanOnFailure {
			rt.requestReplan()
		}
	}
	rt.requestDispatch()
}

// validateFailures checks configured failures at startup.
func validateFailures(failures []Failure, machines int) error {
	for _, f := range failures {
		if f.Machine < 0 || f.Machine >= machines {
			return fmt.Errorf("runtime: failure targets machine %d, out of range", f.Machine)
		}
		if err := checkFinite("Failure.At", f.At); err != nil {
			return err
		}
		if err := checkFinite("Failure.Downtime", f.Downtime); err != nil {
			return err
		}
	}
	return nil
}

// validateLinkFaults checks configured link faults at startup.
func validateLinkFaults(faults []LinkFault, racks int) error {
	for _, lf := range faults {
		if lf.Rack < 0 || lf.Rack >= racks {
			return fmt.Errorf("runtime: link fault targets rack %d, out of range", lf.Rack)
		}
		if err := checkFinite("LinkFault.At", lf.At); err != nil {
			return err
		}
		if err := checkFinite("LinkFault.Factor", lf.Factor); err != nil {
			return err
		}
	}
	return nil
}

// checkFinite returns an error naming field unless v is finite and at
// least 0. NaN fails every ordered comparison, so a bare v < 0 test would
// let it through.
func checkFinite(field string, v float64) error {
	if v >= 0 && !math.IsInf(v, 1) {
		return nil
	}
	return fmt.Errorf("runtime: %s is %g, want a finite value >= 0", field, v)
}

// computeDuration applies straggler injection to a task's nominal compute
// time and arms the speculation watchdog if enabled. A speculative
// relaunch (noSpec) runs at nominal speed with no watchdog — it models the
// backup copy that overtook the straggler, and caps each task at one
// speculative relaunch so a StragglerFraction of 1 cannot livelock. The
// watchdog is due at speculationThreshold × nominal, before the straggling
// compute ends at stragglerSlowdown × nominal, so it fires unless the
// attempt is aborted first; it never reaches a reduce's output write.
func (rt *runtime) computeDuration(tk *runningTask, nominal float64) float64 {
	if tk.noSpec {
		return nominal
	}
	dur := nominal
	if rt.opts.StragglerFraction > 0 && rt.rng.Float64() < rt.opts.StragglerFraction {
		dur *= stragglerSlowdown
	}
	if rt.opts.Speculation && dur > nominal {
		// Still running past the threshold: relaunch (the backup copy
		// wins; the straggling attempt is killed).
		tk.arm(timerWatch, des.Time(nominal*speculationThreshold))
	}
	return dur
}

// abortSpeculative kills a straggling attempt and marks its task so the
// relaunch skips the straggler roll (one backup copy per task).
func (rt *runtime) abortSpeculative(tk *runningTask) {
	if tk.mapT != nil {
		tk.mapT.speculated = true
	} else {
		tk.redT.speculated = true
	}
	rt.abort(tk, true, 0)
}
