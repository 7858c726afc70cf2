package runtime

// Attrition: task-attempt failure injection, retry/backoff, machine
// blacklisting, application-master restart and DFS corruption handling.
//
// These model the attrition a long-running YARN cluster sees between the
// hard machine failures of failures.go: containers crash (OOM, disk
// hiccups, preemption), whole application masters die and are relaunched
// by the resource manager, and disks silently corrupt block replicas.
//
//   - Task attempts crash with probability TaskFailureProb, rolled per
//     attempt from the runtime's seeded rng. A crashed attempt counts
//     against the task's attempt budget (maxTaskAttempts) and re-enters
//     the pending queues after a deterministic exponential backoff:
//     retryBackoff·2^(k−1) for the k-th crash. Exhausting the
//     budget fails the job terminally, as YARN does.
//   - Every failed attempt also counts against its machine. A machine
//     accumulating blacklistThreshold failures is blacklisted: it keeps
//     its running work but receives no new attempts and is skipped by the
//     dispatch heartbeat (so delay scheduling does not wait for it).
//     After blacklistCooldown it rejoins with its failure count reset.
//   - AMFailures kill a job's application master: all running attempts
//     are lost and the job stops scheduling until the resource manager
//     relaunches it amRestartDelay later. The restarted attempt reuses
//     completed map outputs that survive on live machines and recomputes
//     the rest; a stage that lost any map output rewinds to the map phase
//     (the rack-aggregated shuffle cannot be partially re-fed). Rack
//     commitments (allowedRacks, the plan assignment) survive restart —
//     the plan is a property of the job, not of the AM attempt. The
//     maxAMAttempts-th failure is terminal.
//   - Corruptions flip one replica on a machine to corrupt in the DFS.
//     Detection is read-driven (checksums): replicaClosest skips corrupt
//     copies and hands the block to the repair daemon, whose traffic is
//     counted in Result.RepairBytes like post-failure re-replication.

import (
	"fmt"
	"math"

	"corral/internal/des"
	"corral/internal/dfs"
	"corral/internal/trace"
)

// armCrash rolls the injected-crash die for a freshly launched attempt.
// A doomed attempt crashes partway into its nominal compute time; the
// fraction comes from the same seeded rng, so the schedule of crashes is
// a pure function of the seed.
func (rt *runtime) armCrash(tk *runningTask, nominal float64) {
	p := rt.opts.TaskFailureProb
	if p <= 0 {
		return
	}
	crash := rt.rng.Float64() < p
	frac := rt.rng.Float64()
	if !crash {
		return
	}
	if nominal <= 0 {
		nominal = 1
	}
	tk.arm(timerCrash, des.Time(frac*nominal))
}

// crashAttempt handles one injected attempt crash: the attempt aborts,
// the task's attempt count and the machine's failure count advance, and
// the task either requeues after exponential backoff or — with its budget
// exhausted — fails the whole job.
func (rt *runtime) crashAttempt(tk *runningTask) {
	je := tk.je
	role, idx, att := tk.ident()
	rt.tr.TaskCrash(float64(rt.sim.Now()), role, je.job.ID, tk.st.idx, idx, att, tk.machine)
	var attempts int
	if tk.mapT != nil {
		tk.mapT.attempts++
		attempts = tk.mapT.attempts
	} else {
		tk.redT.attempts++
		attempts = tk.redT.attempts
	}
	rt.noteAttemptFailure(tk.machine)
	if attempts >= maxTaskAttempts {
		rt.abort(tk, true, -1)
		rt.failJob(je, fmt.Sprintf("task attempt budget (%d) exhausted", maxTaskAttempts))
		return
	}
	backoff := retryBackoff * math.Pow(2, float64(attempts-1))
	rt.tr.TaskBackoff(float64(rt.sim.Now()), role, je.job.ID, tk.st.idx, idx, attempts, backoff)
	rt.abort(tk, true, des.Time(backoff))
}

// noteAttemptFailure charges a failed attempt to its machine and
// blacklists it at the threshold.
func (rt *runtime) noteAttemptFailure(m int) {
	rt.machineFailures[m]++
	if rt.blacklisted[m] || rt.dead[m] || rt.machineFailures[m] < blacklistThreshold {
		return
	}
	rt.blacklisted[m] = true
	rt.tr.Blacklist(float64(rt.sim.Now()), m)
	rt.sim.After(blacklistCooldown, func() { rt.unblacklist(m) })
}

// unblacklist returns a machine to the slot pool after its cooldown.
func (rt *runtime) unblacklist(m int) {
	if !rt.blacklisted[m] {
		return
	}
	rt.blacklisted[m] = false
	rt.machineFailures[m] = 0
	rt.tr.Unblacklist(float64(rt.sim.Now()), m)
	if rt.dead[m] {
		// Died during the cooldown: recoverMachine re-admits it if the
		// failure was transient.
		return
	}
	rt.requestDispatch()
}

// failJob marks a job terminally failed, aborting its running attempts.
func (rt *runtime) failJob(je *jobExec, reason string) {
	if je.done() {
		return
	}
	je.failed = true
	je.failReason = reason
	je.completion = float64(rt.sim.Now())
	rt.active--
	rt.failedJobs++
	rt.abortJobAttempts(je)
	rt.tr.JobFail(float64(rt.sim.Now()), je.job.ID, reason)
	rt.onJobTerminal(je)
	rt.requestDispatch()
}

// abortJobAttempts kills every running attempt of the job without
// requeueing the work (the caller is failing or restarting the job).
// Machines are scanned in index order for determinism.
func (rt *runtime) abortJobAttempts(je *jobExec) {
	for m := 0; m < len(rt.freeSlots); m++ {
		lst := rt.running[m]
		if len(lst) == 0 {
			continue
		}
		attempts := append([]*runningTask(nil), lst...)
		for _, tk := range attempts {
			if tk.je == je {
				rt.abort(tk, true, -1)
			}
		}
	}
}

// failAM handles one scheduled application-master failure.
func (rt *runtime) failAM(jobID int) {
	var je *jobExec
	for _, cand := range rt.jobs {
		if cand.job.ID == jobID {
			je = cand
			break
		}
	}
	if je == nil || !je.submitted || je.done() || je.amDown {
		return
	}
	rt.tr.AMFail(float64(rt.sim.Now()), jobID)
	je.amFailures++
	if je.amFailures >= maxAMAttempts {
		rt.failJob(je, fmt.Sprintf("AM attempt budget (%d) exhausted", maxAMAttempts))
		return
	}
	je.amDown = true
	je.amAttempt++ // voids backoff requeues armed under the dead AM
	rt.abortJobAttempts(je)
	rt.sim.After(amRestartDelay, func() { rt.restartJob(je) })
}

// restartJob relaunches a job's application master: stages are rebuilt
// around whatever completed work survives on live machines, and the job
// resumes scheduling. Placement state (allowedRacks, the plan assignment)
// is untouched — Corral's rack commitments outlive the AM attempt.
func (rt *runtime) restartJob(je *jobExec) {
	if je.done() {
		return
	}
	je.amDown = false
	je.skips = 0
	for _, st := range je.stages {
		rt.recoverStage(st)
	}
	rt.tr.AMRestart(float64(rt.sim.Now()), je.job.ID)
	rt.requestDispatch()
}

// recoverStage rebuilds one stage's execution state for a restarted AM.
// Completed map outputs on live machines are kept (the restarted AM
// learns of them from the recovered job history, as YARN's
// yarn.app.mapreduce.am.job.recovery does); everything else returns to
// the pending queues with fresh attempt budgets. A reducing stage that
// lost any map output rewinds to the map phase: the rack-aggregated
// shuffle model cannot re-fetch individual partitions, so its reduces
// restart too (finishMapsPhase rebuilds them when the maps are redone).
func (rt *runtime) recoverStage(st *stageExec) {
	if st.phase == stageWaiting || st.phase == stageDone {
		return
	}
	st.anyPref, st.anywhere = nil, nil
	st.pendingMapCount = 0
	st.mapsDone = 0
	st.mapsOnMachine = make(map[int]int)
	for i := range st.mapsOnRack {
		st.mapsOnRack[i] = 0
	}
	lostMaps := false
	for _, t := range st.maps {
		if t.doneOn >= 0 && !rt.dead[t.doneOn] {
			st.mapsDone++
			st.mapsOnMachine[t.doneOn]++
			st.mapsOnRack[rt.cluster.RackOf(t.doneOn)]++
			continue
		}
		if t.doneOn >= 0 {
			lostMaps = true
		}
		t.doneOn = -1
		t.attempts = 0
		t.speculated = false
		rt.queueMap(st, t)
	}
	rt.locBuild.build(st, rt.cluster.Config.Machines())
	if st.phase != stageReducing {
		return
	}
	if lostMaps || st.pendingMapCount > 0 {
		// Shuffle input is gone: rewind to mapping. Reduce state is
		// rebuilt by finishMapsPhase once the maps are whole again.
		st.phase = stageMapping
		st.reduces = nil
		st.reduceQ = nil
		st.reducesDone = 0
		st.reduceMachines = nil
		return
	}
	// All map outputs intact: keep completed reduces on live machines,
	// re-pend the rest (reduceMachines is rebuilt in task-index order,
	// which is deterministic even though it differs from completion
	// order).
	st.reduceQ = st.reduceQ[:0]
	st.reducesDone = 0
	st.reduceMachines = st.reduceMachines[:0]
	for _, rT := range st.reduces {
		if rT.doneOn >= 0 && !rt.dead[rT.doneOn] {
			st.reducesDone++
			st.reduceMachines = append(st.reduceMachines, rT.doneOn)
			continue
		}
		rT.doneOn = -1
		rT.attempts = 0
		rT.speculated = false
		st.reduceQ = append(st.reduceQ, rT)
		rt.tr.TaskQueued(float64(rt.sim.Now()), trace.RoleReduce, st.je.job.ID, st.idx, rT.index, rT.attempts)
	}
}

// applyCorruption handles one scheduled Corruption event: a block on the
// machine loses one replica to silent corruption. Blocks whose last clean
// live copy would be destroyed are not eligible.
func (rt *runtime) applyCorruption(c Corruption) {
	if rt.dead[c.Machine] {
		return
	}
	var candidates []*dfs.Block
	for _, b := range rt.store.BlocksOn(c.Machine) {
		if rt.store.ReplicaCorrupt(b, c.Machine) {
			continue
		}
		clean := 0
		for _, r := range b.Replicas {
			if r != c.Machine && !rt.dead[r] && !rt.store.ReplicaCorrupt(b, r) {
				clean++
			}
		}
		if clean >= 1 {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		return
	}
	b := candidates[rt.rng.Intn(len(candidates))]
	rt.store.CorruptReplica(b, c.Machine)
}

// validateAttrition checks the per-task options at startup: attrition
// and straggler injection, the DFS block size and the delay-scheduling
// patience.
func validateAttrition(opts Options, machines int) error {
	if !(opts.TaskFailureProb >= 0 && opts.TaskFailureProb <= 1) { // NaN too
		return fmt.Errorf("runtime: TaskFailureProb %g outside [0,1]", opts.TaskFailureProb)
	}
	if !(opts.StragglerFraction >= 0 && opts.StragglerFraction <= 1) {
		return fmt.Errorf("runtime: StragglerFraction %g outside [0,1]", opts.StragglerFraction)
	}
	if err := checkFinite("BlockSize", opts.BlockSize); err != nil {
		return err
	}
	if opts.DelayNodeLocal < 0 || opts.DelayRackLocal < 0 {
		return fmt.Errorf("runtime: negative delay-scheduling patience (DelayNodeLocal %d, DelayRackLocal %d)",
			opts.DelayNodeLocal, opts.DelayRackLocal)
	}
	for _, af := range opts.AMFailures {
		if err := checkFinite("AMFailure.At", af.At); err != nil {
			return err
		}
	}
	for _, c := range opts.Corruptions {
		if c.Machine < 0 || c.Machine >= machines {
			return fmt.Errorf("runtime: corruption targets machine %d, out of range", c.Machine)
		}
		if err := checkFinite("Corruption.At", c.At); err != nil {
			return err
		}
	}
	return nil
}
