package runtime

import (
	"math"
	"slices"

	"corral/internal/des"
)

// Dispatch: the resource-manager side of the runtime. Whenever slots free
// up or new tasks become runnable, pending tasks are matched to free slots
// according to the configured policy.
//
// Job order is fixed by sortDispatchOrder (FIFO for Yarn-CS and
// ShuffleWatcher; planner priority for Corral/LocalShuffle, with ad-hoc
// jobs after all planned jobs). Placement constraints (allowedRacks) are
// hard; locality preferences for map tasks are soft and widen with delay
// scheduling (§3.1, [48]): after DelayNodeLocal declined opportunities a
// job accepts rack-local slots, after DelayRackLocal any slot.

// shuffleMachineOrder re-permutes the heartbeat order (Fisher-Yates on the
// runtime's seeded stream, so runs stay deterministic) and records each
// machine's new position in machineAt. Each swap index is
// (*rand.Rand).Int31n(i+1) computed inline on the source's ring, so the
// same values and the same draw count as rt.rng.Intn(i+1)
// (TestShuffleMatchesRandIntn): rejection above max =
// (1<<31)-1-(1<<31)%n followed by v % n. Int31n masks powers of two
// instead, but for those max is MaxInt32 and v % n is v & (n-1), so the
// one path gives the same values and draws without a per-step test.
// Since (1<<31)%n < n, max >= (1<<31)-n, so a draw at or below
// MaxInt32-n is accepted without computing max; only the top n values (a
// ~n/2^31 chance) go to redrawAbove. The ring index and the draw count
// live in locals for the whole pass, and the ring refills in place when
// used up; this runs about 30% faster than a call per draw to a
// standalone Int31n over the same ring. A 10k-machine pass makes 10k
// draws.
//
// Once the swap at step i is done, order[i] never moves again in the
// pass, so its position is recorded right there; order[0] is the one
// entry left when the loop ends.
//
//corral:hotpath
func (rt *runtime) shuffleMachineOrder() {
	c, order, at := rt.rngSrc, rt.machineOrder, rt.machineAt
	pos, draws := c.pos, c.draws
	for i := len(order) - 1; i > 0; i-- {
		if pos >= rngLen {
			c.refill()
			pos = 0
		}
		v := int31(c.ring[pos])
		pos++
		draws++
		n := int32(i + 1)
		if v > math.MaxInt32-n {
			c.pos, c.draws = pos, draws
			v = c.redrawAbove(v, n)
			pos, draws = c.pos, c.draws
		}
		// v >= 0: the unsigned remainder is v % n, minus the signed
		// division's overflow guard.
		j := uint32(v) % uint32(n)
		m := order[j]
		order[j] = order[i]
		order[i] = m
		at[m] = int32(i)
	}
	if len(order) > 0 {
		at[order[0]] = 0
	}
	c.pos, c.draws = pos, draws
}

// int31 is rand.Int31's value for the Uint64 output u: the high 31 bits
// of the Int63 draw u&(1<<63-1).
func int31(u uint64) int32 { return int32(u << 1 >> 33) }

// redrawAbove is Int31n's rejection loop for a first draw v above
// MaxInt32-n: it redraws while v exceeds the rejection bound and returns
// the accepted value.
func (c *countingSource) redrawAbove(v, n int32) int32 {
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	for v > max {
		v = int31(c.Uint64())
	}
	return v
}

// requestDispatch coalesces dispatch work to one event per instant.
func (rt *runtime) requestDispatch() {
	if rt.dispatchPending {
		return
	}
	rt.dispatchPending = true
	rt.sim.After(0, rt.onDispatch)
}

// dispatchFired and retryFired are the dispatch and retry events,
// bound once as onDispatch and onRetry.
func (rt *runtime) dispatchFired() {
	rt.dispatchPending = false
	rt.dispatch()
}

func (rt *runtime) retryFired() {
	rt.retryPending = false
	rt.dispatch()
}

// runnableTasks reports how many tasks the job could offer to a slot right
// now: pending (unassigned) maps plus queued reduces across all stages.
// Zero means a dispatch visit to this job is a guaranteed no-op — nothing
// to pop, and the delay-scheduling decline path needs a pending map too.
//
//corral:hotpath
func (je *jobExec) runnableTasks() int {
	n := 0
	for _, st := range je.stages {
		n += st.pendingMapCount + len(st.reduceQ)
	}
	return n
}

// dispatch greedily fills free slots until no job accepts one. If jobs
// declined slots waiting for locality, a heartbeat retry is scheduled —
// that retry is when the delay-scheduling skip counters actually buy the
// job wider locality, so the "delay" is real simulated time.
//
// Machines are visited in a freshly shuffled order on every pass: YARN
// node-manager heartbeats arrive in effectively random order, and a fixed
// index order would let the FIFO scheduler pack jobs into low-numbered
// racks "for free". A pass visits only the machines that can take a slot
// (visitEligible), in that order.
//
//corral:hotpath
func (rt *runtime) dispatch() {
	rt.declined = false
	// One pass over the job list narrows the per-slot scan to jobs that can
	// actually use a slot. Dispatch order is preserved (runnableJobs is a
	// subsequence of byOrder) and the skipped jobs are exactly those whose
	// offerSlotTo visit would have been a no-op, so assignments, skip
	// counters and the rng stream are unchanged. Nothing dispatch launches
	// can make a job runnable synchronously (all completions and stage
	// transitions arrive as later events), so one snapshot per dispatch
	// suffices; jobs draining to zero mid-pass are lazily skipped.
	//
	// The same pass marks rackDemand with every rack some runnable job
	// allows (anyRack stands for all of them once an unconstrained job is
	// runnable), and the heartbeat visit skips machines in unmarked racks.
	// That skip is exact: offerSlotTo on such a machine would reject every
	// runnable job at allowsRack, and everything it checks before that is
	// side-effect free. allowedRacks changes only in event handlers
	// (submit, the failure and link-fault fallbacks, adoptReplan), never
	// inside a dispatch, so the marks stay a superset for the whole call.
	rt.runnableJobs = rt.runnableJobs[:0]
	rt.clearDemand()
	anyRack := false
	for _, je := range rt.byOrder {
		if !je.submitted || je.done() || je.amDown || je.runnableTasks() == 0 {
			continue
		}
		rt.runnableJobs = append(rt.runnableJobs, je)
		if je.allowedRacks == nil {
			anyRack = true
		} else if !anyRack {
			rt.markDemand(je.allowedRacks)
		}
	}
	fill := func(m int) bool {
		launched := false
		for rt.freeSlots[m] > 0 && rt.offerSlot(m) {
			launched = true
		}
		return launched
	}
	for {
		// The shuffle runs even when no job is runnable: every pass consumes
		// its draws, demand or not.
		rt.shuffleMachineOrder()
		if len(rt.runnableJobs) == 0 || !rt.visitEligible(anyRack, fill) {
			break
		}
	}
	if rt.declined && !rt.retryPending {
		rt.armRetry()
	}
}

// clearDemand unmarks the racks the previous dispatch marked.
func (rt *runtime) clearDemand() {
	for _, r := range rt.demandRacks {
		rt.rackDemand[r] = false
	}
	rt.demandRacks = rt.demandRacks[:0]
}

// markDemand marks racks in rackDemand and lists each newly marked one in
// demandRacks, so the list holds every marked rack exactly once.
func (rt *runtime) markDemand(racks []int) {
	for _, r := range racks {
		if !rt.rackDemand[r] {
			rt.rackDemand[r] = true
			rt.demandRacks = append(rt.demandRacks, int32(r))
		}
	}
}

// canTake reports whether machine m can take a slot: live, not
// blacklisted, with a free slot.
func (rt *runtime) canTake(m int) bool {
	return rt.freeSlots[m] > 0 && !rt.dead[m] && !rt.blacklisted[m]
}

// visitEligible calls visit on every machine that canTake a slot and,
// unless anyRack, sits in a rack marked in rackDemand, in machineOrder's
// order, and reports whether any visit returned true. Each machine is
// checked again just before its visit, since an earlier visit in the pass
// may have made it ineligible.
//
// With anyRack the pass walks all of machineOrder. Otherwise it collects
// the eligible machines of the demanded racks alone and sorts them by
// their machineAt position, packed as pos<<32|m keys. That is exact
// because no visit makes another machine newly eligible: within a
// dispatch, freeSlots only falls (runMap and runReduce take a slot on the
// visited machine; every slot return — task end, abort, recovery — is an
// event handler, and netsim never calls a done callback synchronously),
// and dead and blacklisted change only in event handlers (failMachine,
// recoverMachine, noteAttemptFailure via crashAttempt, unblacklist). So a
// machine the collection leaves out is one the full walk would skip.
//
//corral:hotpath
func (rt *runtime) visitEligible(anyRack bool, visit func(m int) bool) bool {
	assigned := false
	if anyRack {
		for _, m := range rt.machineOrder {
			if rt.canTake(int(m)) && visit(int(m)) {
				assigned = true
			}
		}
		return assigned
	}
	keys := rt.visitKeys[:0]
	for _, r := range rt.demandRacks {
		lo, hi := rt.cluster.MachinesInRack(int(r))
		for m := lo; m < hi; m++ {
			if rt.canTake(m) {
				keys = append(keys, uint64(rt.machineAt[m])<<32|uint64(m))
			}
		}
	}
	slices.Sort(keys)
	rt.visitKeys = keys
	for _, k := range keys {
		m := int(uint32(k))
		if rt.canTake(m) && visit(m) {
			assigned = true
		}
	}
	return assigned
}

// armRetry schedules the delay-scheduling heartbeat retry.
func (rt *runtime) armRetry() {
	rt.retryPending = true
	rt.sim.After(des.Time(heartbeat), rt.onRetry)
}

// offerSlot offers one slot on machine m. Under the plan-driven
// schedulers with both planned and ad-hoc jobs present, the two groups
// form capacity-scheduler queues: the freed slot goes first to whichever
// queue is under its share (work-conserving in both directions). With a
// single queue the slot is offered in plain dispatch order.
func (rt *runtime) offerSlot(m int) bool {
	queued := (rt.opts.Scheduler == Corral || rt.opts.Scheduler == LocalShuffle) &&
		rt.havePlanned && rt.haveAdhoc
	if !queued {
		return rt.offerSlotTo(m, nil)
	}
	planned := func(je *jobExec) bool { return je.assignment != nil }
	adhoc := func(je *jobExec) bool { return je.assignment == nil }
	adhocFirst := float64(rt.runningAdhoc) <
		adhocShare*float64(rt.runningPlanned+rt.runningAdhoc+1)
	if adhocFirst {
		return rt.offerSlotTo(m, adhoc) || rt.offerSlotTo(m, planned)
	}
	return rt.offerSlotTo(m, planned) || rt.offerSlotTo(m, adhoc)
}

// offerSlotTo offers one slot on machine m to jobs in dispatch order that
// match the filter (nil = all). It returns true if a task was launched.
//
//corral:hotpath
func (rt *runtime) offerSlotTo(m int, filter func(*jobExec) bool) bool {
	rack := rt.cluster.RackOf(m)
	for _, je := range rt.runnableJobs {
		if je.done() || je.amDown || je.runnableTasks() == 0 {
			continue
		}
		if filter != nil && !filter(je) {
			continue
		}
		if !je.allowsRack(rack) {
			continue
		}
		hadMaps := false
		level := je.localityLevel(rt)

		// 1) Node-local maps from any mapping stage.
		for _, st := range je.stages {
			if st.phase != stageMapping {
				continue
			}
			if st.pendingMapCount > 0 {
				hadMaps = true
			}
			if t := popTask(&st.byMachine, m, st); t != nil {
				je.skips = 0
				rt.runMap(st, t, m)
				return true
			}
		}
		// 2) Preference-free maps.
		for _, st := range je.stages {
			if st.phase != stageMapping {
				continue
			}
			if t := popSlice(&st.anywhere, st); t != nil {
				rt.runMap(st, t, m)
				return true
			}
		}
		// 3) Reduce tasks (no soft locality; constraints already applied).
		for _, st := range je.stages {
			if st.phase == stageReducing && len(st.reduceQ) > 0 {
				rT := st.reduceQ[len(st.reduceQ)-1]
				st.reduceQ = st.reduceQ[:len(st.reduceQ)-1]
				rt.runReduce(st, rT, m)
				return true
			}
		}
		// 4) Rack-local maps once patience level allows.
		if level >= 1 {
			for _, st := range je.stages {
				if st.phase != stageMapping {
					continue
				}
				if t := popTask(&st.byRack, rack, st); t != nil {
					rt.runMap(st, t, m)
					return true
				}
			}
		}
		// 5) Any map once fully patient.
		if level >= 2 {
			for _, st := range je.stages {
				if st.phase != stageMapping {
					continue
				}
				if t := popSlice(&st.anyPref, st); t != nil {
					rt.runMap(st, t, m)
					return true
				}
			}
		}
		if hadMaps {
			// Declined for locality: one delay-scheduling skip.
			je.skips++
			rt.declined = true
		}
	}
	return false
}

// localityLevel maps the job's skip counter to an allowed locality level:
// 0 node-local only, 1 rack-local, 2 anywhere.
func (je *jobExec) localityLevel(rt *runtime) int {
	switch {
	case je.skips < rt.opts.DelayNodeLocal:
		return 0
	case je.skips < rt.opts.DelayRackLocal:
		return 1
	}
	return 2
}

// popTask pops an unassigned task from a locality bucket (see
// locIndex.pop) and marks it assigned.
//
//corral:hotpath
func popTask(ix *locIndex, key int, st *stageExec) *mapTask {
	t := ix.pop(key, st.maps)
	if t != nil {
		t.assigned = true
		st.pendingMapCount--
	}
	return t
}

// popSlice pops an unassigned task from a plain list.
func popSlice(lst *[]*mapTask, st *stageExec) *mapTask {
	l := *lst
	for len(l) > 0 {
		t := l[len(l)-1]
		l = l[:len(l)-1]
		if !t.assigned {
			*lst = l
			t.assigned = true
			st.pendingMapCount--
			return t
		}
	}
	*lst = l
	return nil
}
