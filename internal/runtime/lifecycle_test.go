package runtime

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"corral/internal/invariants"
	"corral/internal/job"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/trace"
)

// lifecycleCase is one phase of the attempt lifecycle to abort in; want
// picks an attempt that is in it.
type lifecycleCase struct {
	name string
	want func(tk *runningTask) bool
}

func lifecycleCases() []lifecycleCase {
	isMap := func(tk *runningTask) bool { return tk.mapT != nil }
	loopback := func(tk *runningTask) bool {
		for _, f := range tk.flows {
			if f.Src == tk.machine && f.Dst == tk.machine {
				return true
			}
		}
		return false
	}
	return []lifecycleCase{
		{"map read", func(tk *runningTask) bool {
			return isMap(tk) && tk.phase == phaseFetch && len(tk.flows) > 0
		}},
		{"map compute", func(tk *runningTask) bool {
			return isMap(tk) && tk.phase == phaseCompute
		}},
		// Rack flows and the zero-byte loopback guard still in flight.
		{"reduce shuffle", func(tk *runningTask) bool {
			return !isMap(tk) && tk.phase == phaseFetch && len(tk.flows) >= 2 && loopback(tk)
		}},
		{"reduce compute", func(tk *runningTask) bool {
			return !isMap(tk) && tk.phase == phaseCompute
		}},
		{"output write", func(tk *runningTask) bool {
			return !isMap(tk) && tk.phase == phaseWrite && len(tk.flows) == 2
		}},
	}
}

// abortInPhase runs a shuffle job one event at a time until an attempt
// matches c, aborts it (by failing its machine, or by an injected crash)
// and runs the job to the end. It reports false if no attempt ever
// matched.
func abortInPhase(t *testing.T, c lifecycleCase, crash bool, seed int64) bool {
	t.Helper()
	topo := smallTopo()
	// The probe feeds the invariant monitor and keeps every event, to
	// count what happens to the task after the abort.
	mon := invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
	var events []trace.Event
	probe := observerFunc(func(e trace.Event) {
		events = append(events, e)
		mon.Observe(e)
	})
	j := job.MapReduce(1, "abort", job.Profile{
		InputBytes: 2048e6, ShuffleBytes: 2e9, OutputBytes: 400e6,
		MapTasks: 32, ReduceTasks: 8, MapRate: 2e8, ReduceRate: 2e8,
	})
	// LocalShuffle confines the tasks to racks 0 and 1 but places the
	// input at random, so most maps read from another rack.
	plan := &planner.Plan{Assignments: map[int]*planner.Assignment{1: {JobID: 1, Racks: []int{0, 1}}}}
	rt, err := newRuntime(Options{
		Cluster: topo, Scheduler: LocalShuffle, Plan: plan,
		BlockSize: 64e6, Seed: seed, Probe: probe,
	}, []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	rt.start()
	var tk *runningTask
	for tk == nil && rt.sim.Step() {
		for m := range rt.running {
			for _, cand := range rt.running[m] {
				if tk == nil && c.want(cand) {
					tk = cand
				}
			}
		}
	}
	if tk == nil {
		return false
	}

	role, idx, att := tk.ident()
	phase, mark := tk.phase, len(events)
	stage, mach := tk.st.idx, tk.machine
	flows := append([]*netsim.Flow(nil), tk.flows...)
	timers := tk.timers
	if crash {
		rt.crashAttempt(tk)
	} else {
		rt.failMachineTransient(Failure{At: float64(rt.sim.Now()), Machine: tk.machine})
	}
	// Checked before the next event: a pooled flow may be reused once the
	// recompute retires it.
	for _, f := range flows {
		if !f.Canceled() {
			t.Fatalf("%s: flow %d of the aborted attempt not canceled", c.name, f.ID)
		}
	}
	for kind, h := range timers {
		if rt.sim.Scheduled(h) {
			t.Fatalf("%s: timer kind %d of the aborted attempt not canceled", c.name, kind)
		}
	}
	// Checked before the next event too: a launch may reuse the retired
	// object.
	if !tk.aborted || !tk.retired || tk.done || tk.phase != phase || len(tk.flows) != 0 {
		t.Fatalf("%s: aborted attempt moved on: aborted=%v retired=%v done=%v phase %d→%d flows=%d",
			c.name, tk.aborted, tk.retired, tk.done, phase, tk.phase, len(tk.flows))
	}
	// A callback that reaches a retired attempt panics, naming it (a
	// crash has counted the attempt by now).
	_, _, attNow := tk.ident()
	name := fmt.Sprintf("retired attempt %d of %s %d (job %d, stage %d, machine %d)", attNow, role, idx, j.ID, stage, mach)
	if len(flows) > 0 {
		mustPanic(t, name, func() { tk.onFlow(flows[0]) })
	}
	mustPanic(t, name, tk.onTimer)
	for rt.sim.Step() {
	}
	if _, err := rt.finish(); err != nil {
		t.Fatal(err)
	}

	// A crash traces the attempt it ends, then the abort the next one.
	var queued, finished, aborts, crashes int
	for _, e := range events[mark:] {
		if e.Role != role || e.Job != j.ID || e.Stage != stage || e.Task != idx {
			continue
		}
		switch e.Kind {
		case trace.KTaskQueued:
			queued++
		case trace.KTaskFinish:
			finished++
			if e.Att == att && e.Mach == mach {
				t.Fatalf("%s: the aborted attempt (attempt %d on machine %d) finished", c.name, att, mach)
			}
		case trace.KTaskAbort:
			aborts++
		case trace.KTaskCrash:
			crashes++
		}
	}
	wantCrashes := 0
	if crash {
		wantCrashes = 1
	}
	if queued != 1 || finished != 1 || aborts != 1 || crashes != wantCrashes {
		t.Fatalf("%s (crash=%v): task requeued %d, finished %d, aborted %d, crashed %d times; want 1, 1, 1, %d",
			c.name, crash, queued, finished, aborts, crashes, wantCrashes)
	}
	if rt.jobs[0].completion <= 0 {
		t.Fatalf("%s: job never completed after the abort", c.name)
	}
	if !mon.Ended() || mon.ViolationCount() != 0 {
		t.Fatalf("%s: monitor ended=%v with %d violations: %v",
			c.name, mon.Ended(), mon.ViolationCount(), mon.Violations())
	}
	return true
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one naming %q", msg, want)
		}
	}()
	f()
}

// TestAbortedAttemptRunsNothing aborts an attempt in every phase of its
// lifecycle, by a machine failure and by an injected crash. The attempt's
// flows and timers are canceled and it is retired in its phase; a late
// flow or timer callback panics naming it; it never finishes, its task is
// requeued exactly once and finishes once elsewhere, and the invariant
// monitor stays clean.
func TestAbortedAttemptRunsNothing(t *testing.T) {
	hits := make(map[string]int)
	for _, c := range lifecycleCases() {
		for _, crash := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				if abortInPhase(t, c, crash, seed) {
					if crash {
						hits[c.name+"/crash"]++
					} else {
						hits[c.name+"/fail"]++
					}
				}
			}
		}
	}
	for _, c := range lifecycleCases() {
		for _, how := range []string{"fail", "crash"} {
			if hits[c.name+"/"+how] == 0 {
				t.Errorf("no run reached %s to abort it by %s (vacuous case)", c.name, how)
			}
		}
	}
	t.Logf("cases hit: %v", hits)
}

// TestAttemptCycleZeroAlloc requires a warmed attempt launch→finish cycle
// and a warmed launch→abort cycle to allocate nothing: the attempt object,
// its callbacks, its flow and event nodes and the dispatch event all come
// back from free lists. Each cycle runs a map whose input is read from
// another rack, so it starts a flow and arms a compute timer, on a stage
// that never completes (its map count is out of reach).
func TestAttemptCycleZeroAlloc(t *testing.T) {
	rt, err := newRuntime(Options{Cluster: smallTopo(), Seed: 1}, []*job.Job{shuffleJob(1)})
	if err != nil {
		t.Fatal(err)
	}
	je := rt.jobs[0]
	je.racksTouched = make([]bool, rt.cluster.Config.Racks)
	st := &stageExec{
		je: je, profile: job.Profile{MapTasks: math.MaxInt32, MapRate: 2e8},
		mapsOnMachine: map[int]int{0: 0}, mapsOnRack: make([]int32, rt.cluster.Config.Racks),
	}
	task := &mapTask{bytes: 64e6, srcMachine: 8, doneOn: -1}
	const m = 0
	finishes, aborts := 0, 0
	finish := func() {
		rt.runMap(st, task, m)
		for rt.sim.Step() {
		}
		finishes++
	}
	abort := func() {
		rt.runMap(st, task, m)
		tk := rt.running[m][0]
		if len(tk.flows) != 1 || tk.phase != phaseFetch {
			t.Fatalf("attempt in phase %d with %d flows, want a fetch with one flow", tk.phase, len(tk.flows))
		}
		rt.abort(tk, true, -1)
		for rt.sim.Step() {
		}
		aborts++
	}
	finish()
	abort()
	if allocs := testing.AllocsPerRun(50, finish); allocs != 0 {
		t.Fatalf("launch→finish allocates %v objects per attempt, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, abort); allocs != 0 {
		t.Fatalf("launch→abort allocates %v objects per attempt, want 0", allocs)
	}
	if st.mapsDone != finishes || len(rt.running[m]) != 0 || rt.freeSlots[m] != rt.cluster.Config.SlotsPerMachine ||
		len(rt.tkFree) != 1 || rt.net.FlowsServed() != int64(finishes) {
		t.Fatalf("after %d finishes and %d aborts: %d maps done, %d running, %d free slots, %d free attempts, %d flows served",
			finishes, aborts, st.mapsDone, len(rt.running[m]), rt.freeSlots[m], len(rt.tkFree), rt.net.FlowsServed())
	}
}
