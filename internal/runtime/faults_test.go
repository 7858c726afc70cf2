package runtime

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"corral/internal/dfs"
	"corral/internal/job"
	"corral/internal/planner"
	"corral/internal/trace"
)

// --- S2: at most one speculative relaunch per task --------------------------

func TestSpeculativeRelaunchCappedAtOne(t *testing.T) {
	topo := smallTopo()
	// Every attempt straggles at 6x and the watchdog fires at 2x. Without
	// the one-relaunch cap the relaunch re-rolls the straggler dice,
	// straggles again, and is killed again, forever. With the cap the
	// backup copy runs at nominal speed and the run terminates. Because
	// the watchdog is due before a straggler's compute ends, it fires for
	// every first attempt: every task is speculated.
	rt, err := newRuntime(Options{
		Cluster: topo, BlockSize: 64e6, Seed: 32,
		StragglerFraction: 1, Speculation: true,
	}, []*job.Job{shuffleJob(1)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].CompletionTime <= 0 {
		t.Fatal("job did not complete with universal stragglers + speculation")
	}
	st := rt.jobs[0].stages[0]
	if st.mapsDone != 8 || st.reducesDone != 8 {
		t.Fatalf("maps/reduces done = %d/%d, want 8/8", st.mapsDone, st.reducesDone)
	}
	for _, mt := range st.maps {
		if !mt.speculated {
			t.Errorf("map %d finished without a speculative relaunch", mt.index)
		}
	}
	for _, rT := range st.reduces {
		if !rT.speculated {
			t.Errorf("reduce %d finished without a speculative relaunch", rT.index)
		}
	}
}

// --- S3: requeueMap under repeated failures ---------------------------------

func TestRequeueMapReplicaFiltering(t *testing.T) {
	rt, err := newRuntime(Options{Cluster: smallTopo(), Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	newStage := func() *stageExec {
		return &stageExec{
			mapsOnMachine: make(map[int]int),
			mapsOnRack:    make([]int32, rt.cluster.Config.Racks),
		}
	}
	blk := &dfs.Block{Size: 1, Replicas: []int{0, 1, 4}}

	// One replica machine dead: the task keeps its two live preferences.
	st := newStage()
	rt.dead[0] = true
	tk := &mapTask{blk: blk, srcMachine: -1, assigned: true}
	rt.requeueMap(st, tk)
	if bucketLen(&st.byMachine, 0) != 0 || bucketLen(&st.byMachine, 1) != 1 || bucketLen(&st.byMachine, 4) != 1 {
		t.Fatalf("byMachine after one dead replica = %v", st.byMachine.captureQueues())
	}
	if len(st.anyPref) != 1 || len(st.anywhere) != 0 {
		t.Fatalf("anyPref/anywhere = %d/%d, want 1/0", len(st.anyPref), len(st.anywhere))
	}
	if st.pendingMapCount != 1 || tk.assigned {
		t.Fatalf("pendingMapCount=%d assigned=%v, want 1/false", st.pendingMapCount, tk.assigned)
	}

	// All replicas dead: only now does the task land in anywhere.
	st = newStage()
	rt.dead[1], rt.dead[4] = true, true
	tk2 := &mapTask{blk: blk, srcMachine: -1, assigned: true}
	rt.requeueMap(st, tk2)
	if len(st.anywhere) != 1 || len(st.anyPref) != 0 || len(st.byMachine.captureQueues()) != 0 {
		t.Fatalf("all-replicas-dead requeue: anywhere=%d anyPref=%d byMachine=%v",
			len(st.anywhere), len(st.anyPref), st.byMachine.captureQueues())
	}
}

func TestMapRunsOnceAcrossRepeatedFailures(t *testing.T) {
	topo := smallTopo()
	// Machine 0 dies twice (recovering in between); its rack-mates with
	// the sibling replicas die alongside it the second time. The affected
	// map tasks must complete exactly once each.
	rt, err := newRuntime(Options{
		Cluster: topo, BlockSize: 64e6, Seed: 33,
		Failures: []Failure{
			{At: 0.3, Machine: 0, Downtime: 1.0},
			{At: 2.0, Machine: 0, Downtime: 1.0},
			{At: 2.0, Machine: 1, Downtime: 1.0},
			{At: 2.0, Machine: 2, Downtime: 1.0},
			{At: 2.0, Machine: 3, Downtime: 1.0},
		},
	}, []*job.Job{shuffleJob(1)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].CompletionTime <= 0 {
		t.Fatal("job did not survive repeated transient failures")
	}
	st := rt.jobs[0].stages[0]
	if st.mapsDone != st.profile.MapTasks {
		t.Fatalf("mapsDone = %d, want %d (each task exactly once)", st.mapsDone, st.profile.MapTasks)
	}
	if st.reducesDone != st.profile.ReduceTasks {
		t.Fatalf("reducesDone = %d, want %d", st.reducesDone, st.profile.ReduceTasks)
	}
}

// --- S4: rack-majority fallback mid-shuffle ---------------------------------

func TestRackMajorityLossMidShuffle(t *testing.T) {
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1)}
	// Pin the job to a single rack so losing that rack's majority is
	// guaranteed to trip the deadIn*2 > total fallback.
	plan := &planner.Plan{
		Objective: planner.MinimizeMakespan,
		Assignments: map[int]*planner.Assignment{
			1: {JobID: 1, Racks: []int{0}, Start: 0, EstLatency: 30},
		},
	}
	clean := mustRun(t, Options{Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 34},
		[]*job.Job{shuffleJob(1)})
	// Maps of this shuffle-dominated job finish in well under half the
	// makespan; at 0.5*makespan the job is mid-shuffle. Kill 3 of the 4
	// machines of its planned rack then.
	at := 0.5 * clean.Makespan
	lo := 0 * topo.MachinesPerRack
	rt, err := newRuntime(Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 34,
		Failures: []Failure{
			{At: at, Machine: lo}, {At: at, Machine: lo + 1}, {At: at, Machine: lo + 2},
		},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.run()
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if jr.CompletionTime <= 0 {
		t.Fatal("job did not finish after losing its planned rack mid-shuffle")
	}
	if jr.Completion <= at {
		t.Fatalf("job finished at %g, before the failure at %g — not mid-shuffle", jr.Completion, at)
	}
	if rt.jobs[0].allowedRacks != nil {
		t.Fatalf("constraints not dropped: allowedRacks = %v", rt.jobs[0].allowedRacks)
	}
	if jr.RacksUsed < 2 {
		t.Fatalf("job stayed on %d rack(s); deadIn*2 > total fallback did not widen it", jr.RacksUsed)
	}
}

// --- transient failures ------------------------------------------------------

func TestTransientFailureRecovers(t *testing.T) {
	topo := smallTopo()
	var recovered []float64
	res := mustRun(t, Options{
		Cluster: topo, BlockSize: 64e6, Seed: 35,
		Failures: []Failure{{At: 0.5, Machine: 0, Downtime: 2}},
		Probe: observerFunc(func(e trace.Event) {
			if e.Kind == trace.KMachineUp && e.Mach == 0 {
				recovered = append(recovered, e.T)
			}
		}),
	}, []*job.Job{shuffleJob(1)})
	if res.Jobs[0].CompletionTime <= 0 {
		t.Fatal("job did not complete across a transient failure")
	}
	if len(recovered) != 1 || math.Abs(recovered[0]-2.5) > 1e-9 {
		t.Fatalf("machine-up events = %v, want one at t=2.5", recovered)
	}
}

func TestFailureValidationDowntime(t *testing.T) {
	opts := Options{Cluster: smallTopo(), Failures: []Failure{{At: 1, Machine: 0, Downtime: -1}}}
	if _, err := Run(opts, nil); err == nil {
		t.Fatal("negative downtime not rejected")
	}
	bad := Options{Cluster: smallTopo(), LinkFaults: []LinkFault{{At: 1, Rack: 99, Factor: 1}}}
	if _, err := Run(bad, nil); err == nil {
		t.Fatal("out-of-range link fault rack not rejected")
	}
	neg := Options{Cluster: smallTopo(), LinkFaults: []LinkFault{{At: 1, Rack: 0, Factor: -0.5}}}
	if _, err := Run(neg, nil); err == nil {
		t.Fatal("negative link fault factor not rejected")
	}
}

// TestFaultScheduleRejectsNonFinite requires every fault time, downtime
// and factor and the DFS block size to be finite and non-negative, the
// task probabilities to lie in [0,1] and the delay-scheduling patience to
// be non-negative: NaN fails every ordered comparison, so a bare < 0 check
// let these through, to run silently (a NaN block size changes the
// makespan) or to stall the network.
func TestFaultScheduleRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		opts  Options
	}{
		{"Failure.At", Options{Failures: []Failure{{At: nan, Machine: 0}}}},
		{"Failure.At", Options{Failures: []Failure{{At: inf, Machine: 0}}}},
		{"Failure.Downtime", Options{Failures: []Failure{{At: 1, Machine: 0, Downtime: nan}}}},
		{"Failure.Downtime", Options{Failures: []Failure{{At: 1, Machine: 0, Downtime: inf}}}},
		{"LinkFault.At", Options{LinkFaults: []LinkFault{{At: nan, Rack: 0, Factor: 1}}}},
		{"LinkFault.At", Options{LinkFaults: []LinkFault{{At: inf, Rack: 0, Factor: 1}}}},
		{"LinkFault.Factor", Options{LinkFaults: []LinkFault{{At: 1, Rack: 0, Factor: nan}}}},
		{"LinkFault.Factor", Options{LinkFaults: []LinkFault{{At: 1, Rack: 0, Factor: inf}}}},
		{"AMFailure.At", Options{AMFailures: []AMFailure{{At: nan, JobID: 1}}}},
		{"AMFailure.At", Options{AMFailures: []AMFailure{{At: inf, JobID: 1}}}},
		{"Corruption.At", Options{Corruptions: []Corruption{{At: nan, Machine: 0}}}},
		{"Corruption.At", Options{Corruptions: []Corruption{{At: inf, Machine: 0}}}},
		{"TaskFailureProb", Options{TaskFailureProb: nan}},
		{"StragglerFraction", Options{StragglerFraction: nan}},
		{"StragglerFraction", Options{StragglerFraction: -1}},
		{"StragglerFraction", Options{StragglerFraction: 2}},
		{"BlockSize", Options{BlockSize: nan}},
		{"BlockSize", Options{BlockSize: inf}},
		{"BlockSize", Options{BlockSize: -1}},
		{"DelayNodeLocal", Options{DelayNodeLocal: -5}},
		{"DelayRackLocal", Options{DelayRackLocal: -5}},
	} {
		tc.opts.Cluster = smallTopo()
		_, err := Run(tc.opts, []*job.Job{shuffleJob(1)})
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Run returned %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
}

// --- link faults -------------------------------------------------------------

func TestLinkFaultSlowsAndRecovers(t *testing.T) {
	topo := smallTopo()
	mk := func() []*job.Job { return []*job.Job{shuffleJob(1)} }
	clean := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 36}, mk())
	// Fail every rack uplink for a window mid-run; all cross-rack traffic
	// parks, then resumes. The job must finish, later than clean.
	var faults []LinkFault
	for r := 0; r < topo.Racks; r++ {
		faults = append(faults,
			LinkFault{At: 0.3 * clean.Makespan, Rack: r, Factor: 0},
			LinkFault{At: 0.3*clean.Makespan + 5, Rack: r, Factor: 1})
	}
	faulty := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 36, LinkFaults: faults}, mk())
	if faulty.Jobs[0].CompletionTime <= 0 {
		t.Fatal("job did not complete across a full uplink outage")
	}
	if faulty.Makespan <= clean.Makespan {
		t.Fatalf("outage did not slow the run: %g vs clean %g", faulty.Makespan, clean.Makespan)
	}
}

func TestUplinkFailureDropsConstraints(t *testing.T) {
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1)}
	plan := &planner.Plan{
		Objective: planner.MinimizeMakespan,
		Assignments: map[int]*planner.Assignment{
			1: {JobID: 1, Racks: []int{0}, Start: 0, EstLatency: 30},
		},
	}
	clean := mustRun(t, Options{Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 37},
		[]*job.Job{shuffleJob(1)})
	rt, err := newRuntime(Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 37,
		LinkFaults: []LinkFault{
			{At: 0.4 * clean.Makespan, Rack: 0, Factor: 0},
			{At: 0.4*clean.Makespan + 30, Rack: 0, Factor: 1},
		},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].CompletionTime <= 0 {
		t.Fatal("job did not complete after its planned rack was isolated")
	}
	if rt.jobs[0].allowedRacks != nil {
		t.Fatalf("uplink failure left constraints in place: %v", rt.jobs[0].allowedRacks)
	}
}

// --- re-replication integration (acceptance: 2+1 spread + netsim bytes) -----

func TestReReplicationRestoresSpread(t *testing.T) {
	topo := smallTopo()
	opts := Options{Cluster: topo, BlockSize: 64e6, Seed: 38}
	mk := func() []*job.Job { return []*job.Job{shuffleJob(1)} }

	// Clean run: record total network bytes and which blocks live on the
	// victim machine. Same seed => identical placement in both runs.
	rtClean, err := newRuntime(opts, mk())
	if err != nil {
		t.Fatal(err)
	}
	resClean, err := rtClean.run()
	if err != nil {
		t.Fatal(err)
	}
	input, ok := rtClean.store.Open("job1-stage0-input")
	if !ok || len(input.Blocks) == 0 {
		t.Fatal("input file missing")
	}
	victim := input.Blocks[0].Replicas[0]
	affected := make(map[int]bool) // block indices with a replica on victim
	for i := range input.Blocks {
		for _, m := range input.Blocks[i].Replicas {
			if m == victim {
				affected[i] = true
			}
		}
	}

	// Failure run: kill the victim permanently after the job is done, so
	// the byte-accounting delta is exactly the repair traffic.
	failOpts := opts
	failOpts.Failures = []Failure{{At: resClean.Makespan + 5, Machine: victim}}
	rtFail, err := newRuntime(failOpts, mk())
	if err != nil {
		t.Fatal(err)
	}
	resFail, err := rtFail.run()
	if err != nil {
		t.Fatal(err)
	}
	if resFail.RepairBytes <= 0 {
		t.Fatal("no repair bytes recorded after a machine with replicas died")
	}
	delta := rtFail.net.TotalBytes() - rtClean.net.TotalBytes()
	if math.Abs(delta-resFail.RepairBytes) > 1e-3 {
		t.Fatalf("netsim byte delta %g != repair bytes %g", delta, resFail.RepairBytes)
	}

	file, ok := rtFail.store.Open("job1-stage0-input")
	if !ok {
		t.Fatal("input file missing after failure run")
	}
	for i := range file.Blocks {
		b := &file.Blocks[i]
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", i, len(b.Replicas))
		}
		spread := make(map[int]int)
		for _, m := range b.Replicas {
			if m == victim {
				t.Fatalf("block %d still has a replica on the dead machine: %v", i, b.Replicas)
			}
			if !rtFail.store.Alive(m) {
				t.Fatalf("block %d replica on dead machine %d", i, m)
			}
			spread[rtFail.cluster.RackOf(m)]++
		}
		if !affected[i] {
			continue
		}
		// Affected blocks were re-replicated; the 2+1 arrangement must be
		// restored: exactly two racks, at most two replicas per rack.
		if len(spread) != 2 {
			t.Fatalf("repaired block %d spans %d racks (%v), want 2", i, len(spread), spread)
		}
		for r, c := range spread {
			if c > 2 {
				t.Fatalf("repaired block %d has %d replicas on rack %d", i, c, r)
			}
		}
	}
}

// --- failure-triggered replanning -------------------------------------------

func TestReplanOnFailureReassigns(t *testing.T) {
	topo := smallTopo()
	j1 := shuffleJob(1)
	j2 := shuffleJob(2)
	j2.Arrival = 20 // arrives after the failure below
	jobs := []*job.Job{j1, j2}
	// Both jobs planned onto rack 0; the failure guts that rack before
	// job 2 arrives, so the replan must move (or unconstrain) job 2.
	plan := &planner.Plan{
		Objective: planner.MinimizeMakespan,
		Assignments: map[int]*planner.Assignment{
			1: {JobID: 1, Racks: []int{0}, Start: 0, EstLatency: 15},
			2: {JobID: 2, Racks: []int{0}, Start: 20, EstLatency: 15},
		},
	}
	deadRack := 0
	lo := deadRack * topo.MachinesPerRack
	rt, err := newRuntime(Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 39,
		ReplanOnFailure: true,
		Failures: []Failure{
			{At: 1, Machine: lo}, {At: 1, Machine: lo + 1}, {At: 1, Machine: lo + 2},
		},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans < 1 {
		t.Fatal("rack-majority loss did not trigger a replan")
	}
	for _, jr := range res.Jobs {
		if jr.CompletionTime <= 0 {
			t.Fatalf("job %d never completed under replanning", jr.ID)
		}
	}
	// The not-yet-arrived job should have been replanned away from the
	// mostly-dead rack (or left unconstrained) — never pinned to it alone.
	if r2 := rt.jobs[1].allowedRacks; len(r2) == 1 && r2[0] == deadRack {
		t.Fatalf("job 2 replanned onto the failed rack alone: %v", r2)
	}
}

func TestReplanDeterminism(t *testing.T) {
	run := func() *Result {
		topo := smallTopo()
		jobs := []*job.Job{shuffleJob(1), shuffleJob(2)}
		plan := planFor(t, topo, []*job.Job{shuffleJob(1), shuffleJob(2)}, planner.MinimizeMakespan)
		return mustRun(t, Options{
			Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 40,
			ReplanOnFailure: true,
			Failures: []Failure{
				{At: 0.5, Machine: 0, Downtime: 3}, {At: 0.5, Machine: 1, Downtime: 3},
				{At: 0.5, Machine: 2, Downtime: 3},
			},
			LinkFaults: []LinkFault{{At: 1, Rack: 1, Factor: 0.25}, {At: 4, Rack: 1, Factor: 1}},
		}, jobs)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replan+fault run nondeterministic:\n%+v\nvs\n%+v", a, b)
	}
}
