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

// runningTask tracks one in-flight task attempt so it can be aborted.
type runningTask struct {
	je      *jobExec
	st      *stageExec
	mapT    *mapTask    // nil for reduce attempts
	redT    *reduceTask // nil for map attempts
	machine int
	started des.Time
	aborted bool
	done    bool
	noSpec  bool // speculative relaunch: nominal speed, no watchdog
	events  []*des.Event
	flows   []*netsim.Flow
}

// ident returns the attempt's trace identity (role, task index, attempt).
func (tk *runningTask) ident() (trace.Role, int, int) {
	if tk.mapT != nil {
		return trace.RoleMap, tk.mapT.index, tk.mapT.attempts
	}
	return trace.RoleReduce, tk.redT.index, tk.redT.attempts
}

// newRunningTask hands out attempt objects from a chunked arena: one
// allocation per chunk instead of one per attempt. Objects are never
// recycled — an attempt's deferred closures (watchdog, requeue, flow done)
// may hold the pointer past its lifetime, and a never-reused object makes
// every such access trivially safe while still cutting allocation count
// ~chunkwise.
//
//corral:hotpath
func (rt *runtime) newRunningTask() *runningTask {
	const chunk = 256
	if len(rt.tkArena) == cap(rt.tkArena) {
		rt.tkArena = make([]runningTask, 0, chunk)
	}
	rt.tkArena = rt.tkArena[:len(rt.tkArena)+1]
	return &rt.tkArena[len(rt.tkArena)-1]
}

// track registers a new running attempt (exactly one of t, rT is set).
func (rt *runtime) track(je *jobExec, st *stageExec, t *mapTask, rT *reduceTask, m int) *runningTask {
	tk := rt.newRunningTask()
	*tk = runningTask{je: je, st: st, mapT: t, redT: rT, machine: m, started: rt.sim.Now()}
	if (t != nil && t.speculated) || (rT != nil && rT.speculated) {
		tk.noSpec = true
	}
	rt.running[m] = append(rt.running[m], tk)
	return tk
}

// finishTracking removes a completed attempt from the running set and
// cancels its owned timers (notably the speculation watchdog), so finished
// tasks leave no dead events in the DES queue. Canceling the timer that is
// currently firing is a harmless no-op.
func (rt *runtime) finishTracking(tk *runningTask) {
	for _, ev := range tk.events {
		ev.Cancel()
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

// after schedules a timer owned by the attempt; it is canceled on abort.
func (tk *runningTask) after(rt *runtime, d des.Time, fn func()) {
	ev := rt.sim.After(d, func() {
		if tk.aborted {
			return
		}
		fn()
	})
	tk.events = append(tk.events, ev)
}

// flow starts a network flow owned by the attempt. The completion wrapper
// drops the attempt's reference before anything else: under flow pooling
// (enabled by newRuntime) the *netsim.Flow is recycled once its done
// callback returns, so a stale entry in tk.flows could alias a different,
// still-active flow by the time abortTask cancels the list.
func (tk *runningTask) flow(rt *runtime, start func(done func(*netsim.Flow)) *netsim.Flow, done func()) {
	f := start(func(fin *netsim.Flow) {
		tk.removeFlow(fin)
		if tk.aborted {
			return
		}
		done()
	})
	tk.flows = append(tk.flows, f)
}

// removeFlow drops one flow reference by identity (swap-remove; order is
// irrelevant, Cancel on abort is order-independent).
func (tk *runningTask) removeFlow(f *netsim.Flow) {
	for i, other := range tk.flows {
		if other == f {
			last := len(tk.flows) - 1
			tk.flows[i] = tk.flows[last]
			tk.flows[last] = nil
			tk.flows = tk.flows[:last]
			return
		}
	}
}

// abort cancels the attempt's timers and flows and requeues its work
// immediately. freeSlot controls whether the slot is returned (false when
// the machine itself died).
func (rt *runtime) abort(tk *runningTask, freeSlot bool) {
	rt.abortTask(tk, freeSlot, 0)
}

// abortTask cancels the attempt's timers and flows. requeueDelay controls
// what happens to the work: negative drops it (the job is failing
// terminally or an AM restart will rebuild the stage), zero requeues it
// now, positive requeues it after a retry backoff. A delayed requeue is
// voided if the job reaches a terminal state — or restarts its AM — first.
func (rt *runtime) abortTask(tk *runningTask, freeSlot bool, requeueDelay des.Time) {
	if tk.aborted || tk.done {
		return
	}
	tk.aborted = true
	for _, ev := range tk.events {
		ev.Cancel()
	}
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
	if requeueDelay < 0 {
		rt.requestDispatch()
		return
	}
	je, st := tk.je, tk.st
	gen := je.amAttempt
	requeue := func() {
		if je.done() || je.amDown || je.amAttempt != gen {
			return
		}
		if tk.mapT != nil {
			rt.requeueMap(st, tk.mapT)
		} else {
			st.reduceQ = append(st.reduceQ, tk.redT)
			rt.tr.TaskQueued(float64(rt.sim.Now()), trace.RoleReduce, je.job.ID, st.idx, tk.redT.index, tk.redT.attempts)
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
	t.assigned = false
	st.pendingMapCount++
	// Enabled-guarded: st.je may be nil for synthetic stages in tests, so
	// even the argument expression must not run on the disabled path.
	if rt.tr.Enabled() {
		rt.tr.TaskQueued(float64(rt.sim.Now()), trace.RoleMap, st.je.job.ID, st.idx, t.index, t.attempts)
	}
	switch {
	case t.blk != nil:
		pushed := false
		for _, m := range t.blk.Replicas {
			if rt.dead[m] {
				continue
			}
			st.byMachine[m] = append(st.byMachine[m], t)
			st.byRack[rt.cluster.RackOf(m)] = append(st.byRack[rt.cluster.RackOf(m)], t)
			pushed = true
		}
		if pushed {
			st.anyPref = append(st.anyPref, t)
		} else {
			st.anywhere = append(st.anywhere, t)
		}
	case t.srcMachine >= 0 && !rt.dead[t.srcMachine]:
		st.byMachine[t.srcMachine] = append(st.byMachine[t.srcMachine], t)
		st.byRack[rt.cluster.RackOf(t.srcMachine)] = append(st.byRack[rt.cluster.RackOf(t.srcMachine)], t)
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
		rt.abort(tk, false)
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
		if f.At < 0 {
			return fmt.Errorf("runtime: failure at negative time %g", f.At)
		}
		if f.Downtime < 0 {
			return fmt.Errorf("runtime: failure with negative downtime %g", f.Downtime)
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
		if lf.At < 0 {
			return fmt.Errorf("runtime: link fault at negative time %g", lf.At)
		}
		if lf.Factor < 0 {
			return fmt.Errorf("runtime: link fault with negative factor %g", lf.Factor)
		}
	}
	return nil
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
		watch := des.Time(nominal * speculationThreshold)
		ev := rt.sim.After(watch, func() {
			if tk.aborted {
				return
			}
			// Still running past the threshold: relaunch (the backup copy
			// wins; the straggling attempt is killed).
			rt.abortSpeculative(tk)
		})
		tk.events = append(tk.events, ev)
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
	rt.abort(tk, true)
}
