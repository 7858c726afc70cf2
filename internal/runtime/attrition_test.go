package runtime

import (
	"reflect"
	"strings"
	"testing"

	"corral/internal/invariants"
	"corral/internal/job"
	"corral/internal/trace"
)

// countingProbe forwards events to an invariant monitor while counting
// per-kind occurrences, so tests can assert lifecycle behaviour.
type countingProbe struct {
	mon   *invariants.Monitor
	kinds map[trace.Kind]int
}

func newCountingProbe(machines, slots int) *countingProbe {
	return &countingProbe{
		mon:   invariants.NewMonitor(machines, slots),
		kinds: make(map[trace.Kind]int),
	}
}

func (p *countingProbe) Observe(e trace.Event) {
	p.kinds[e.Kind]++
	p.mon.Observe(e)
}

// observerFunc adapts a function to a trace.Observer.
type observerFunc func(trace.Event)

func (f observerFunc) Observe(e trace.Event) { f(e) }

func attritionOpts(seed int64) Options {
	return Options{
		Cluster:         smallTopo(),
		BlockSize:       64e6,
		Seed:            seed,
		TaskFailureProb: 0.25,
	}
}

// Retried attempts must converge: with a moderate crash rate every job
// completes, crashes demonstrably happened, and the invariant monitor
// stays silent.
func TestAttritionRetriesComplete(t *testing.T) {
	topo := smallTopo()
	probe := newCountingProbe(topo.Machines(), topo.SlotsPerMachine)
	opts := attritionOpts(41)
	opts.Probe = probe
	jobs := []*job.Job{shuffleJob(1), shuffleJob(2)}
	jobs[1].Arrival = 5
	res := mustRun(t, opts, jobs)
	for _, jr := range res.Jobs {
		if jr.Failed || jr.CompletionTime <= 0 {
			t.Fatalf("job %d failed=%v completion=%g under retryable attrition",
				jr.ID, jr.Failed, jr.CompletionTime)
		}
	}
	if probe.kinds[trace.KTaskCrash] == 0 {
		t.Fatal("no task crashes injected at TaskFailureProb=0.25 (vacuous test)")
	}
	if !probe.mon.Ended() {
		t.Fatal("monitor never saw SimEnd")
	}
	if n := probe.mon.ViolationCount(); n != 0 {
		t.Fatalf("%d invariant violations in a retried run: %v", n, probe.mon.Violations())
	}
	// Degradation sanity: the same workload without crashes is faster.
	clean := attritionOpts(41)
	clean.TaskFailureProb = 0
	mkClean := []*job.Job{shuffleJob(1), shuffleJob(2)}
	mkClean[1].Arrival = 5
	cleanRes := mustRun(t, clean, mkClean)
	if res.Makespan < cleanRes.Makespan {
		t.Fatalf("attrition run (%g) finished before the clean run (%g)",
			res.Makespan, cleanRes.Makespan)
	}
}

// Two runs with the same seed must be bit-identical — the full attrition
// machinery (crash rolls, backoff timers, blacklisting, AM restart,
// corruption events) draws only from the seeded rng. A different seed
// must produce a different result, or the replay test proves nothing.
func TestAttritionDeterministicReplay(t *testing.T) {
	mk := func() []*job.Job {
		jobs := []*job.Job{shuffleJob(1), shuffleJob(2)}
		jobs[1].Arrival = 3
		return jobs
	}
	opts := attritionOpts(7)
	opts.AMFailures = []AMFailure{{At: 6, JobID: 1}}
	opts.Corruptions = []Corruption{{At: 0.5, Machine: 2}, {At: 1.0, Machine: 9}}
	a := mustRun(t, opts, mk())
	b := mustRun(t, opts, mk())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed attrition runs diverged:\na: %+v\nb: %+v", a, b)
	}
	opts2 := opts
	opts2.Seed = 8
	c := mustRun(t, opts2, mk())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical results (replay test is vacuous)")
	}
}

// Exhausting the per-task attempt budget must fail the job terminally —
// not deadlock the simulation — and the failure must be a legal terminal
// state for the invariant monitor.
func TestAttemptBudgetFailsJob(t *testing.T) {
	topo := smallTopo()
	probe := newCountingProbe(topo.Machines(), topo.SlotsPerMachine)
	opts := attritionOpts(5)
	opts.TaskFailureProb = 1 // every attempt crashes
	opts.Probe = probe
	res := mustRun(t, opts, []*job.Job{shuffleJob(1)})
	jr := res.Jobs[0]
	if !jr.Failed || res.FailedJobs != 1 {
		t.Fatalf("failed=%v failedJobs=%d, want terminal failure", jr.Failed, res.FailedJobs)
	}
	if !strings.Contains(jr.FailReason, "task attempt budget") {
		t.Fatalf("FailReason = %q, want attempt-budget failure", jr.FailReason)
	}
	if n := probe.mon.ViolationCount(); n != 0 {
		t.Fatalf("terminal job failure raised %d violations: %v", n, probe.mon.Violations())
	}
}

// Machines that accumulate failures must be blacklisted out of the slot
// pool and re-admitted after the cooldown.
func TestBlacklistingAndRejoin(t *testing.T) {
	topo := smallTopo()
	probe := newCountingProbe(topo.Machines(), topo.SlotsPerMachine)
	opts := attritionOpts(11)
	opts.TaskFailureProb = 0.2
	opts.Probe = probe
	res := mustRun(t, opts, []*job.Job{shuffleJob(1), shuffleJob(2)})
	if res.FailedJobs != 0 {
		t.Fatalf("%d jobs failed; want all complete despite blacklisting", res.FailedJobs)
	}
	bl := probe.kinds[trace.KBlacklist]
	if bl == 0 {
		t.Fatalf("no machine was blacklisted at threshold %d with 20%% crashes (vacuous test)", blacklistThreshold)
	}
	if probe.kinds[trace.KUnblacklist] != bl {
		t.Fatalf("blacklist/unblacklist events %d/%d, want pairs",
			bl, probe.kinds[trace.KUnblacklist])
	}
	if n := probe.mon.ViolationCount(); n != 0 {
		t.Fatalf("blacklisting run raised %d violations: %v", n, probe.mon.Violations())
	}
}

// An AM failure mid-run must restart the job, reuse surviving map
// outputs, and still complete; the blast radius is bounded (the job is
// slower, not wedged). Rack commitments must survive the restart.
func TestAMRestartCompletes(t *testing.T) {
	topo := smallTopo()
	probe := newCountingProbe(topo.Machines(), topo.SlotsPerMachine)
	mk := func() []*job.Job { return []*job.Job{shuffleJob(1)} }
	clean := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 13}, mk())

	opts := Options{Cluster: topo, BlockSize: 64e6, Seed: 13, Probe: probe}
	opts.AMFailures = []AMFailure{{At: clean.Makespan / 2, JobID: 1}}
	rt, err := newRuntime(opts, mk())
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.run()
	if err != nil {
		t.Fatal(err)
	}
	if probe.kinds[trace.KAMFail] != 1 || probe.kinds[trace.KAMRestart] != 1 {
		t.Fatalf("AMFail/AMRestart events = %d/%d, want 1/1",
			probe.kinds[trace.KAMFail], probe.kinds[trace.KAMRestart])
	}
	jr := res.Jobs[0]
	if jr.Failed || jr.CompletionTime <= 0 {
		t.Fatalf("job failed=%v completion=%g after AM restart", jr.Failed, jr.CompletionTime)
	}
	if res.Makespan < clean.Makespan {
		t.Fatalf("restarted run (%g) beat the clean run (%g)", res.Makespan, clean.Makespan)
	}
	// Restart preserved completed map outputs: the stage did not rewind
	// to recompute everything from scratch unless outputs were lost, and
	// no machine died here — so the map phase must not have doubled.
	st := rt.jobs[0].stages[0]
	if st.mapsDone != st.profile.MapTasks || st.reducesDone != st.profile.ReduceTasks {
		t.Fatalf("maps/reduces done = %d/%d, want %d/%d",
			st.mapsDone, st.reducesDone, st.profile.MapTasks, st.profile.ReduceTasks)
	}
	if n := probe.mon.ViolationCount(); n != 0 {
		t.Fatalf("AM restart raised %d violations: %v", n, probe.mon.Violations())
	}
}

// The maxAMAttempts-th AM failure is terminal. The second failure lands
// after the first restart (amRestartDelay later), so the restarted
// attempt is the one that dies.
func TestAMBudgetFailsJob(t *testing.T) {
	opts := Options{Cluster: smallTopo(), BlockSize: 64e6, Seed: 17}
	opts.AMFailures = []AMFailure{{At: 0.2, JobID: 1}, {At: 0.2 + amRestartDelay + 0.6, JobID: 1}}
	res := mustRun(t, opts, []*job.Job{shuffleJob(1)})
	jr := res.Jobs[0]
	if !jr.Failed || !strings.Contains(jr.FailReason, "AM attempt budget") {
		t.Fatalf("failed=%v reason=%q, want AM-budget failure", jr.Failed, jr.FailReason)
	}
}

// Corrupted replicas are checksum-detected at read time: the read fails
// over to a clean copy and the repair daemon restores the replica, with
// traffic accounted in RepairBytes.
func TestCorruptionReadFailoverAndRepair(t *testing.T) {
	topo := smallTopo()
	mk := func() []*job.Job {
		j := shuffleJob(1)
		j.Arrival = 1
		return []*job.Job{j}
	}
	rt, err := newRuntime(Options{Cluster: topo, BlockSize: 64e6, Seed: 19}, mk())
	if err != nil {
		t.Fatal(err)
	}
	input, ok := rt.store.Open("job1-stage0-input")
	if !ok || len(input.Blocks) == 0 {
		t.Fatal("input file missing")
	}
	// Corrupt the primary replica of every input block before the job
	// arrives: the node-local-biased scheduler is certain to read at
	// least one of them.
	corrupted := 0
	for i := range input.Blocks {
		b := &input.Blocks[i]
		if rt.store.CorruptReplica(b, b.Replicas[0]) {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no replica corrupted (vacuous test)")
	}
	res, err := rt.run()
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if jr.Failed || jr.CompletionTime <= 0 {
		t.Fatalf("job failed=%v completion=%g reading around corruption", jr.Failed, jr.CompletionTime)
	}
	if res.RepairBytes <= 0 {
		t.Fatal("no repair traffic after corrupt replicas were read")
	}
	if got := rt.store.CorruptReplicas(); got >= corrupted {
		t.Fatalf("%d corrupt replicas remain of %d (none repaired)", got, corrupted)
	}
}

// vacuityProbe deliberately lies to the monitor — it swallows every
// TaskFinish and TaskAbort — to prove the monitor can fail: the slot
// conservation invariant must fire on an otherwise healthy run.
type vacuityProbe struct{ mon *invariants.Monitor }

func (p *vacuityProbe) Observe(e trace.Event) {
	if e.Kind == trace.KTaskFinish || e.Kind == trace.KTaskAbort {
		return
	}
	p.mon.Observe(e)
}

func TestMonitorAntiVacuity(t *testing.T) {
	topo := smallTopo()
	probe := &vacuityProbe{mon: invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)}
	mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 23, Probe: probe},
		[]*job.Job{shuffleJob(1)})
	if probe.mon.ViolationCount() == 0 {
		t.Fatal("monitor saw only task starts yet reported no slot violation — it cannot fail")
	}
}
