package runtime

import (
	"math"
	"slices"
	"sort"

	"corral/internal/des"
	"corral/internal/dfs"
	"corral/internal/job"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/trace"
)

// jobExec is the application-master state for one job.
type jobExec struct {
	rt         *runtime
	job        *job.Job
	assignment *planner.Assignment
	// allowedRacks constrains task placement (Corral / LocalShuffle /
	// ShuffleWatcher). nil means unconstrained.
	allowedRacks []int

	inputFiles []*dfs.File // parallel with inputStage
	inputStage []int

	stages    []*stageExec
	submitted bool
	// skips is the delay-scheduling counter: scheduling opportunities this
	// job declined waiting for locality.
	skips      int
	completion float64
	// failed marks a terminal failure (attempt or AM budget exhausted);
	// completion then records the failure time, not a success.
	failed     bool
	failReason string
	// amDown suspends scheduling while the application master is being
	// restarted; amAttempt is a generation counter that invalidates backoff
	// requeues armed under a previous AM incarnation. amFailures counts AM
	// crashes against maxAMAttempts.
	amDown     bool
	amAttempt  int
	amFailures int

	taskSeconds   float64
	reduceSeconds []float64
	// racksTouched[r] marks racks the job has run attempts in; racksUsed
	// counts the marks (an indexed slice, not a map: touchRack is on the
	// per-attempt hot path).
	racksTouched []bool
	racksUsed    int
	stagesLeft   int
	// tasksLaunched counts attempts ever started — replanning treats jobs
	// with zero launches as freely re-assignable.
	tasksLaunched int
}

// touchRack marks rack r as used by the job.
func (je *jobExec) touchRack(r int) {
	if !je.racksTouched[r] {
		je.racksTouched[r] = true
		je.racksUsed++
	}
}

// planPriority orders planned jobs; ad-hoc and unplanned jobs sort last.
func (je *jobExec) planPriority() int {
	if je.assignment == nil {
		return math.MaxInt32
	}
	return je.assignment.Priority
}

// done reports whether the job has completed.
func (je *jobExec) done() bool { return je.completion >= 0 }

// allowsRack reports whether the job may run tasks in rack r.
func (je *jobExec) allowsRack(r int) bool {
	if je.allowedRacks == nil {
		return true
	}
	for _, a := range je.allowedRacks {
		if a == r {
			return true
		}
	}
	return false
}

type stagePhase int

const (
	stageWaiting stagePhase = iota // upstream not finished
	stageMapping                   // maps pending/running
	stageReducing
	stageDone
)

// stageExec tracks one DAG stage's execution.
type stageExec struct {
	je      *jobExec
	idx     int
	profile job.Profile
	phase   stagePhase

	inputFile        *dfs.File // source stages only
	remoteStorage    bool      // source stage reading the storage cluster
	upstreamMachines []int     // producer machines for derived stages

	// Pending map-task indexes. byMachine/byRack hold locality-preferred
	// tasks (lazily cleaned; see locIndex); anywhere holds
	// preference-free tasks.
	pendingMapCount int
	byMachine       locIndex
	byRack          locIndex
	anyPref         []*mapTask // preferred somewhere; fallback at level 2
	anywhere        []*mapTask // no preference at all

	mapsDone      int
	mapsOnMachine map[int]int
	mapsOnRack    []int32 // completed maps per rack

	// maps holds every map task (index order) so AM restart can audit which
	// completed outputs survive; the locality indexes above only hold the
	// pending subset.
	maps []*mapTask

	// reduces holds every reduce task (index order); reduceQ is the pending
	// queue dispatch pops from. Attempts are interchangeable in placement,
	// but identity matters for the per-task attempt budget and AM-restart
	// recovery.
	reduces        []*reduceTask
	reduceQ        []*reduceTask
	reducesDone    int
	reduceMachines []int // where completed tasks ran (for downstream input)
	coflow         netsim.CoflowID
}

// mapTask is one pending map with its locality preference.
type mapTask struct {
	index      int
	bytes      float64
	blk        *dfs.Block // input block for source stages, nil otherwise
	srcMachine int        // upstream machine for derived stages, -1 if none
	assigned   bool
	// speculated marks a task whose attempt was killed by the speculation
	// watchdog: the relaunch runs at nominal speed with no watchdog.
	speculated bool
	// attempts counts crashed attempts against maxTaskAttempts.
	attempts int
	// doneOn records the machine of the completed attempt (-1 while
	// pending); AM restart reuses outputs whose machine is still alive.
	doneOn int
}

// reduceTask is one logical reduce task with its attempt history.
type reduceTask struct {
	index      int
	attempts   int
	speculated bool
	doneOn     int // machine of the completed attempt, -1 while pending
}

// nodeLocal reports whether machine m holds the task's input.
func (t *mapTask) nodeLocal(rt *runtime, m int) bool {
	if t.blk != nil {
		for _, r := range t.blk.Replicas {
			if r == m && !rt.dead[r] {
				return true
			}
		}
		return false
	}
	return t.srcMachine == m
}

// submit makes the job schedulable. ShuffleWatcher picks its rack subset
// here, greedily and independently per job (no cross-job coordination),
// preferring the racks that hold most of the job's input and breaking
// ties toward lower-indexed racks — which is what lets several large jobs
// pile onto the same racks, the pathology §6.2 describes.
func (rt *runtime) submit(je *jobExec) {
	je.submitted = true
	rt.tr.JobSubmit(float64(rt.sim.Now()), je.job.ID, je.job.Name, je.job.Slots())
	je.racksTouched = make([]bool, rt.cluster.Config.Racks)
	if rt.opts.Scheduler == ShuffleWatcher && !je.job.AdHoc {
		je.allowedRacks = rt.shuffleWatcherRacks(je)
	}

	je.stagesLeft = len(je.job.Stages)
	je.stages = make([]*stageExec, len(je.job.Stages))
	for i := range je.job.Stages {
		st := &stageExec{
			je:            je,
			idx:           i,
			profile:       je.job.Stages[i].Profile,
			phase:         stageWaiting,
			mapsOnMachine: make(map[int]int),
			mapsOnRack:    make([]int32, rt.cluster.Config.Racks),
		}
		rt.coflowID++
		st.coflow = rt.coflowID
		je.stages[i] = st
	}
	for i, si := range je.inputStage {
		je.stages[si].inputFile = je.inputFiles[i]
	}
	if rt.opts.RemoteStorageInput {
		for _, st := range je.stages {
			if len(je.job.Stages[st.idx].Upstream) == 0 && st.profile.InputBytes > 0 {
				st.remoteStorage = true
			}
		}
	}
	// Start all source stages.
	for _, st := range je.stages {
		if len(je.job.Stages[st.idx].Upstream) == 0 {
			rt.startStage(st)
		}
	}
	rt.requestDispatch()
}

// shuffleWatcherRacks picks ⌈slots/rackSlots⌉ racks holding the most of
// the job's input data.
func (rt *runtime) shuffleWatcherRacks(je *jobExec) []int {
	cfg := rt.cluster.Config
	rackSlots := cfg.MachinesPerRack * cfg.SlotsPerMachine
	need := (je.job.Slots() + rackSlots - 1) / rackSlots
	if need < 1 {
		need = 1
	}
	if need > cfg.Racks {
		need = cfg.Racks
	}
	weight := make([]float64, cfg.Racks)
	for _, f := range je.inputFiles {
		for bi := range f.Blocks {
			for _, m := range f.Blocks[bi].Replicas {
				weight[rt.cluster.RackOf(m)] += f.Blocks[bi].Size
			}
		}
	}
	order := make([]int, cfg.Racks)
	for i := range order {
		order[i] = i
	}
	// Insertion sort by weight desc, stable (ties toward low rack index).
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && weight[order[k]] > weight[order[k-1]]; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	return append([]int(nil), order[:need]...)
}

// startStage moves a stage into the mapping phase, materializing its map
// tasks with locality preferences.
func (rt *runtime) startStage(st *stageExec) {
	st.phase = stageMapping
	p := st.profile
	if p.MapTasks == 0 {
		rt.finishMapsPhase(st)
		return
	}
	perMap := p.InputBytes / float64(p.MapTasks)

	// One slab allocation for the whole stage's map tasks instead of one
	// per task; at datacenter scale a stage can carry tens of thousands.
	// Every task of a stage lands in the same one of anyPref and anywhere.
	slab := make([]mapTask, p.MapTasks)
	st.maps = make([]*mapTask, p.MapTasks)
	if st.inputFile != nil && len(st.inputFile.Blocks) > 0 || len(st.upstreamMachines) > 0 {
		st.anyPref = make([]*mapTask, 0, p.MapTasks)
	} else {
		st.anywhere = make([]*mapTask, 0, p.MapTasks)
	}
	lb := &rt.locBuild
	for i := 0; i < p.MapTasks; i++ {
		t := &slab[i]
		t.index = i
		t.bytes = perMap
		t.srcMachine = -1
		t.doneOn = -1
		st.maps[i] = t
		switch {
		case st.inputFile != nil && len(st.inputFile.Blocks) > 0:
			bi := i * len(st.inputFile.Blocks) / p.MapTasks
			t.blk = &st.inputFile.Blocks[bi]
			for _, m := range t.blk.Replicas {
				if rt.dead[m] {
					continue
				}
				lb.add(m, rt.cluster.RackOf(m), i)
			}
			st.anyPref = append(st.anyPref, t)
		case len(st.upstreamMachines) > 0:
			m := st.upstreamMachines[i%len(st.upstreamMachines)]
			t.srcMachine = m
			lb.add(m, rt.cluster.RackOf(m), i)
			st.anyPref = append(st.anyPref, t)
		default:
			st.anywhere = append(st.anywhere, t)
		}
		st.pendingMapCount++
		rt.tr.TaskQueued(float64(rt.sim.Now()), trace.RoleMap, st.je.job.ID, st.idx, t.index, t.attempts)
	}
	lb.build(st, rt.cluster.Config.Machines())
	rt.requestDispatch()
}

// replicaClosest returns the cheapest live source for the task's input as
// read from machine m: node-local, then rack-local, then a remote replica
// whose rack uplink is not failed, then any live replica (the read parks
// until the uplink recovers). Corrupt replicas are checksum-detected at
// read time: they are skipped (the read fails over to the next-closest
// clean copy) and handed to the re-replication daemon. If every live
// replica is corrupt the read falls back to liveness-only selection — the
// client retry loop eventually succeeds against a repaired copy, and
// modelling that stall would add nothing the repair latency doesn't. The
// second return reports whether the selection failed over past a corrupt
// replica (surfaced in the trace as a block_read "failover").
func (rt *runtime) replicaClosest(t *mapTask, m int) (int, bool) {
	if t.blk == nil {
		return t.srcMachine, false
	}
	corruptSeen := false
	usable := func(r int) bool {
		if rt.dead[r] {
			return false
		}
		if rt.store.ReplicaCorrupt(t.blk, r) {
			corruptSeen = true
			return false
		}
		return true
	}
	src := -1
	pickTiers := func(ok func(int) bool) int {
		for _, r := range t.blk.Replicas {
			if r == m && ok(r) {
				return r
			}
		}
		for _, r := range t.blk.Replicas {
			if ok(r) && rt.cluster.SameRack(r, m) {
				return r
			}
		}
		for _, r := range t.blk.Replicas {
			if ok(r) && rt.rackLinkFactor[rt.cluster.RackOf(r)] > 0 {
				return r
			}
		}
		for _, r := range t.blk.Replicas {
			if ok(r) {
				return r
			}
		}
		return -1
	}
	src = pickTiers(usable)
	if corruptSeen {
		// The checksum failure hands the block to the re-replication
		// daemon, which copies a clean replica over the bad one.
		rt.scheduleRepairs([]*dfs.Block{t.blk})
		if src < 0 {
			src = pickTiers(func(r int) bool { return !rt.dead[r] })
		}
	}
	return src, corruptSeen
}

// taskStarted/taskEnded maintain the queue-share accounting (and sample
// the cluster-wide slot-occupancy counter for the trace).
func (rt *runtime) taskStarted(je *jobExec) {
	je.tasksLaunched++
	if je.assignment != nil {
		rt.runningPlanned++
	} else {
		rt.runningAdhoc++
	}
	rt.tr.SlotsBusy(float64(rt.sim.Now()), rt.runningPlanned+rt.runningAdhoc)
}

func (rt *runtime) taskEnded(je *jobExec) {
	if je.assignment != nil {
		rt.runningPlanned--
	} else {
		rt.runningAdhoc--
	}
	rt.tr.SlotsBusy(float64(rt.sim.Now()), rt.runningPlanned+rt.runningAdhoc)
}

// runMap executes one map task on machine m: remote read (if the input is
// not node-local) followed by compute at B_M. The attempt is tracked so
// machine failures and the speculation watchdog can abort and requeue it.
func (rt *runtime) runMap(st *stageExec, t *mapTask, m int) {
	tk := rt.launch(st, t, nil, m)
	src, failover := rt.replicaClosest(t, m)
	switch {
	case st.remoteStorage:
		// Fetch the split from the storage cluster over the shared
		// interconnect (§7 "Remote storage").
		tk.startPath(rt.cluster.StoragePath(m), false, t.bytes)
	case src >= 0 && src != m:
		rt.tr.BlockRead(float64(rt.sim.Now()), st.je.job.ID, m, src, t.bytes, failover)
		tk.startFlow(src, m, t.bytes)
	}
	// Node-local (or sourceless) input: the local read is folded into the
	// compute rate, as in the §4.3 model.
	if len(tk.flows) == 0 {
		tk.step()
	}
}

// finishMapsPhase transitions a stage to reducing (or completes it for
// map-only stages).
func (rt *runtime) finishMapsPhase(st *stageExec) {
	if st.profile.ReduceTasks == 0 {
		// Map-only: outputs live on the map machines. Iterate machines in
		// index order so downstream input assignment stays deterministic.
		machines := make([]int, 0, len(st.mapsOnMachine))
		for m := range st.mapsOnMachine {
			machines = append(machines, m)
		}
		sort.Ints(machines)
		for _, m := range machines {
			for i := 0; i < st.mapsOnMachine[m]; i++ {
				st.reduceMachines = append(st.reduceMachines, m)
			}
		}
		rt.finishStage(st)
		return
	}
	st.phase = stageReducing
	// (Re)build the reduce set: fresh on the first transition, and again
	// when an AM restart rewound the stage to mapping after losing map
	// outputs — the shuffle must be re-fed, so reduces restart too.
	st.reduces = slices.Grow(st.reduces[:0], st.profile.ReduceTasks)
	st.reduceQ = slices.Grow(st.reduceQ[:0], st.profile.ReduceTasks)
	st.reducesDone = 0
	// Slab-allocated like the map tasks; a rebuild after an AM restart
	// gets a fresh slab (stale pointers in aborted attempts are inert).
	slab := make([]reduceTask, st.profile.ReduceTasks)
	for i := 0; i < st.profile.ReduceTasks; i++ {
		rT := &slab[i]
		rT.index = i
		rT.doneOn = -1
		st.reduces = append(st.reduces, rT)
		st.reduceQ = append(st.reduceQ, rT)
		rt.tr.TaskQueued(float64(rt.sim.Now()), trace.RoleReduce, st.je.job.ID, st.idx, rT.index, rT.attempts)
	}
	rt.requestDispatch()
}

// runReduce executes one attempt of reduce task rT on machine m: rack-
// aggregated shuffle fetch, compute at B_R, then a replicated output write
// for terminal stages. The attempt is tracked so failures and speculation
// can abort it.
func (rt *runtime) runReduce(st *stageExec, rT *reduceTask, m int) {
	tk := rt.launch(st, nil, rT, m)
	p := st.profile
	perReduce := p.ShuffleBytes / float64(p.ReduceTasks)
	// Shuffle: one aggregated flow per source rack. The portion produced
	// on machine m itself never touches the network; the rest of m's rack
	// contends only on the reducer's downlink (full in-rack bisection);
	// remote racks traverse their uplink and the reducer rack's downlink.
	// shufBuf is reusable: StartPath interns the path and the flow keeps
	// the canonical copy, never this buffer.
	if perReduce <= 0 || p.MapTasks == 0 {
		tk.step()
		return
	}
	myRack := rt.cluster.RackOf(m)
	nm := float64(p.MapTasks)
	for r, cnt := range st.mapsOnRack {
		if cnt == 0 {
			continue
		}
		bytes := perReduce * float64(cnt) / nm
		if r == myRack {
			bytes -= perReduce * float64(st.mapsOnMachine[m]) / nm
			if bytes > 0 {
				rt.shufBuf[0] = rt.cluster.MachineDownlink(m)
				tk.startPath(rt.shufBuf[:1], false, bytes)
			}
			continue
		}
		rt.shufBuf[0] = rt.cluster.RackUplink(r)
		rt.shufBuf[1] = rt.cluster.RackDownlink(myRack)
		rt.shufBuf[2] = rt.cluster.MachineDownlink(m)
		tk.startPath(rt.shufBuf[:3], true, bytes)
	}
	// A zero-byte loopback lands in an event of its own, so the shuffle
	// ends asynchronously even when all its input was node-local.
	tk.startFlow(m, m, 0)
}

// step advances the attempt past the phase that just ended: the last flow
// of its fetch or write landed, or its compute timer fired.
func (tk *runningTask) step() {
	rt, st := tk.rt, tk.st
	switch tk.phase {
	case phaseFetch:
		tk.phase = phaseCompute
		if tk.redT != nil {
			rt.tr.ShuffleDone(float64(rt.sim.Now()), tk.je.job.ID, st.idx, tk.redT.index, tk.machine)
		}
		tk.arm(timerCompute, des.Time(rt.computeDuration(tk, tk.nominal())))
	case phaseCompute:
		if tk.redT != nil && rt.writeOutput(tk) {
			tk.phase = phaseWrite
			return
		}
		rt.finishAttempt(tk)
	case phaseWrite:
		rt.finishAttempt(tk)
	}
}

// finishAttempt completes the attempt's task once its last phase ends and
// retires the attempt.
func (rt *runtime) finishAttempt(tk *runningTask) {
	tk.done = true
	rt.finishTracking(tk)
	je, st, m := tk.je, tk.st, tk.machine
	dur := float64(rt.sim.Now() - tk.started)
	role, idx, att := tk.ident()
	rt.tr.TaskFinish(float64(rt.sim.Now()), role, je.job.ID, st.idx, idx, att, m, dur)
	je.taskSeconds += dur
	rt.freeSlots[m]++
	rt.taskEnded(je)
	t, rT := tk.mapT, tk.redT
	rt.retire(tk)
	if t != nil {
		t.doneOn = m
		st.mapsDone++
		st.mapsOnMachine[m]++
		st.mapsOnRack[rt.cluster.RackOf(m)]++
		if st.mapsDone == st.profile.MapTasks {
			rt.finishMapsPhase(st)
		}
	} else {
		// Sized once, at the first reduce to finish: a job or stage without
		// reduces keeps nil slices.
		if je.reduceSeconds == nil {
			total := 0
			for _, s := range je.stages {
				total += s.profile.ReduceTasks
			}
			je.reduceSeconds = make([]float64, 0, total)
		}
		je.reduceSeconds = append(je.reduceSeconds, dur)
		rT.doneOn = m
		if st.reduceMachines == nil {
			st.reduceMachines = make([]int, 0, st.profile.ReduceTasks)
		}
		st.reduceMachines = append(st.reduceMachines, m)
		st.reducesDone++
		if st.reducesDone == st.profile.ReduceTasks {
			rt.finishStage(st)
		}
	}
	rt.requestDispatch()
}

// writeOutput starts a reduce attempt's replicated DFS write of its share
// of the output, and reports whether it did: an empty output, a stage a
// later stage consumes and an in-memory run write nothing. The first
// replica stays local; one copy crosses to a machine on a remote rack and
// a second copy is made within that rack.
func (rt *runtime) writeOutput(tk *runningTask) bool {
	p := tk.st.profile
	bytes := p.OutputBytes / float64(p.ReduceTasks)
	if bytes <= 0 || !rt.isTerminal(tk.st) || rt.opts.InMemoryInput {
		return false
	}
	m := tk.machine
	view := rt.store.View()
	myRack := rt.cluster.RackOf(m)
	remoteRack := myRack
	if rt.cluster.Config.Racks > 1 {
		remoteRack = rt.pickRemoteRack(myRack)
	}
	r2 := view.LeastLoadedMachineInRack(remoteRack, []int{m})
	if r2 < 0 {
		r2 = m
	}
	r3 := view.LeastLoadedMachineInRack(remoteRack, []int{m, r2})
	if r3 < 0 {
		r3 = r2
	}
	tk.startFlow(m, r2, bytes)
	tk.startFlow(r2, r3, bytes)
	return true
}

// pickRemoteRack returns a uniformly random rack != myRack, deterministic-
// ally walking past racks isolated by a failed uplink when possible (a
// write into such a rack would park until the link recovers).
func (rt *runtime) pickRemoteRack(myRack int) int {
	racks := rt.cluster.Config.Racks
	r := rt.rng.Intn(racks - 1)
	if r >= myRack {
		r++
	}
	if rt.rackLinkFactor[r] > 0 {
		return r
	}
	for off := 1; off < racks; off++ {
		c := (r + off) % racks
		if c != myRack && rt.rackLinkFactor[c] > 0 {
			return c
		}
	}
	return r
}

// isTerminal reports whether no later stage consumes st's output.
func (rt *runtime) isTerminal(st *stageExec) bool {
	for i := st.idx + 1; i < len(st.je.job.Stages); i++ {
		for _, u := range st.je.job.Stages[i].Upstream {
			if u == st.idx {
				return false
			}
		}
	}
	return true
}

// finishStage marks a stage done and wakes downstream stages whose inputs
// are now all available.
func (rt *runtime) finishStage(st *stageExec) {
	st.phase = stageDone
	je := st.je
	je.stagesLeft--
	if je.stagesLeft == 0 {
		je.completion = float64(rt.sim.Now())
		rt.active--
		rt.tr.JobDone(float64(rt.sim.Now()), je.job.ID)
		rt.onJobTerminal(je)
		rt.requestDispatch()
		return
	}
	for i := st.idx + 1; i < len(je.job.Stages); i++ {
		down := je.stages[i]
		if down.phase != stageWaiting {
			continue
		}
		ready := true
		consumes := false
		for _, u := range je.job.Stages[i].Upstream {
			if u == st.idx {
				consumes = true
			}
			if je.stages[u].phase != stageDone {
				ready = false
			}
		}
		if !consumes || !ready {
			continue
		}
		// Collect upstream producer machines for input locality.
		var ups []int
		for _, u := range je.job.Stages[i].Upstream {
			ups = append(ups, je.stages[u].reduceMachines...)
		}
		down.upstreamMachines = ups
		rt.startStage(down)
	}
	rt.requestDispatch()
}
