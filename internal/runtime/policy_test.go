package runtime

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"corral/internal/job"
	"corral/internal/model"
	"corral/internal/planner"
	"corral/internal/topology"
)

// TestPlanPrioritiesOrderJobs pins two planned jobs to the same single
// rack; the higher-priority one must finish first even if submitted
// second in ID order.
func TestPlanPrioritiesOrderJobs(t *testing.T) {
	topo := topology.Config{
		Racks: 2, MachinesPerRack: 2, SlotsPerMachine: 1,
		NICBandwidth: 10 * gbps, Oversubscription: 5,
	}
	j1, j2 := shuffleJob(1), shuffleJob(2)
	// Hand-built plan: both jobs on rack 0, job 2 at higher priority.
	plan := &planner.Plan{Assignments: map[int]*planner.Assignment{
		1: {JobID: 1, Racks: []int{0}, Priority: 1, EstLatency: 10},
		2: {JobID: 2, Racks: []int{0}, Priority: 0, EstLatency: 10},
	}}
	res := mustRun(t, Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 51,
	}, []*job.Job{j1, j2})
	var c1, c2 float64
	for _, jr := range res.Jobs {
		if jr.ID == 1 {
			c1 = jr.Completion
		} else {
			c2 = jr.Completion
		}
	}
	if c2 >= c1 {
		t.Fatalf("high-priority job finished at %g, after low-priority at %g", c2, c1)
	}
}

// TestDelaySchedulingAchievesLocality compares Yarn-CS with normal
// patience against zero patience: patience must reduce remote map reads
// (visible as cross-rack bytes beyond the writes).
func TestDelaySchedulingAchievesLocality(t *testing.T) {
	topo := smallTopo()
	mk := func() []*job.Job {
		var jobs []*job.Job
		for i := 1; i <= 4; i++ {
			// Map-heavy, shuffle-free jobs isolate the input-read traffic.
			jobs = append(jobs, job.MapReduce(i, "scan", job.Profile{
				InputBytes: 2e9, MapTasks: 32, MapRate: 2e8,
			}))
		}
		return jobs
	}
	patient := mustRun(t, Options{Cluster: topo, BlockSize: 64e6, Seed: 52}, mk())
	impatient := mustRun(t, Options{
		Cluster: topo, BlockSize: 64e6, Seed: 52,
		DelayNodeLocal: 1, DelayRackLocal: 2,
	}, mk())
	if patient.CrossRackBytes >= impatient.CrossRackBytes {
		t.Fatalf("patience did not improve locality: %g vs %g cross-rack bytes",
			patient.CrossRackBytes, impatient.CrossRackBytes)
	}
}

// TestWorkConservationUnderConstraints verifies Corral's cluster scheduler
// is work-conserving: a job constrained to rack 0 cannot leave rack 1's
// slots idle for an unconstrained job.
func TestWorkConservationUnderConstraints(t *testing.T) {
	topo := smallTopo()
	planned := shuffleJob(1)
	adhoc := shuffleJob(2)
	adhoc.AdHoc = true
	adhoc.Recurring = false
	plan := &planner.Plan{Assignments: map[int]*planner.Assignment{
		1: {JobID: 1, Racks: []int{0}, Priority: 0, EstLatency: 10},
	}}
	res := mustRun(t, Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 53,
	}, []*job.Job{planned, adhoc})
	// Both finish; the ad-hoc job is not serialized behind the planned one
	// (it has three other racks all to itself).
	var cPlanned, cAdhoc float64
	for _, jr := range res.Jobs {
		if jr.AdHoc {
			cAdhoc = jr.Completion
		} else {
			cPlanned = jr.Completion
		}
	}
	if cAdhoc > 3*cPlanned {
		t.Fatalf("ad-hoc job starved: %g vs planned %g", cAdhoc, cPlanned)
	}
}

// TestSlotAccountingRestored checks every slot returns to the pool after a
// run with aborts and failures in the mix.
func TestSlotAccountingRestored(t *testing.T) {
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1), shuffleJob(2)}
	rt, err := newRuntime(Options{
		Cluster: topo, BlockSize: 64e6, Seed: 54,
		StragglerFraction: 0.3, Speculation: true,
		Failures: []Failure{{At: 1, Machine: 9}},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.run(); err != nil {
		t.Fatal(err)
	}
	for m, free := range rt.freeSlots {
		switch {
		case rt.dead[m] && free != 0:
			t.Fatalf("dead machine %d has %d slots", m, free)
		case !rt.dead[m] && free != topo.SlotsPerMachine:
			t.Fatalf("machine %d ended with %d free slots, want %d", m, free, topo.SlotsPerMachine)
		}
	}
	if rt.runningPlanned != 0 || rt.runningAdhoc != 0 {
		t.Fatalf("queue counters leaked: planned=%d adhoc=%d", rt.runningPlanned, rt.runningAdhoc)
	}
	for m, lst := range rt.running {
		if len(lst) != 0 {
			t.Fatalf("machine %d still tracks %d attempts", m, len(lst))
		}
	}
}

// TestPlannerEstimateTracksSimulation sanity-checks the §4.3 model: the
// planner's estimated makespan for an isolated job should be within a
// small factor of the simulated Corral run.
func TestPlannerEstimateTracksSimulation(t *testing.T) {
	topo := smallTopo()
	jobs := []*job.Job{shuffleJob(1)}
	cm := model.FromTopology(topo)
	plan, err := planner.New(planner.Input{Cluster: cm, Jobs: jobs, Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 55,
	}, jobs)
	est := plan.Makespan
	act := res.Makespan
	ratio := act / est
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("model estimate %g vs simulated %g (ratio %g): model far off", est, act, ratio)
	}
}

// Property: arbitrary job mixes with arbitrary failures, stragglers and
// scheduler choices always terminate with every job complete, no slot
// leaked and non-negative accounting.
func TestQuickRuntimeInvariants(t *testing.T) {
	f := func(seed int64, sched uint8, failPattern uint8, stragglers bool) bool {
		topo := smallTopo()
		rng := rand.New(rand.NewSource(seed))
		var jobs []*job.Job
		n := rng.Intn(5) + 2
		for i := 1; i <= n; i++ {
			j := job.MapReduce(i, "q", job.Profile{
				InputBytes:   float64(rng.Intn(20)+1) * 1e8,
				ShuffleBytes: float64(rng.Intn(30)) * 1e8,
				OutputBytes:  float64(rng.Intn(10)) * 1e8,
				MapTasks:     rng.Intn(12) + 1,
				ReduceTasks:  rng.Intn(8),
				MapRate:      2e8,
				ReduceRate:   2e8,
			})
			j.Arrival = rng.Float64() * 20
			jobs = append(jobs, j)
		}
		kind := Kind(int(sched) % 4)
		var plan *planner.Plan
		if kind == Corral || kind == LocalShuffle {
			var err error
			plan, err = planner.New(planner.Input{
				Cluster: model.FromTopology(topo), Jobs: jobs, Alpha: -1,
			})
			if err != nil {
				return false
			}
		}
		var failures []Failure
		for i := 0; i < int(failPattern%4); i++ {
			failures = append(failures, Failure{
				At:      rng.Float64() * 10,
				Machine: rng.Intn(topo.Machines()),
			})
		}
		opts := Options{
			Cluster: topo, Scheduler: kind, Plan: plan, BlockSize: 64e6,
			Seed: seed, Failures: failures,
		}
		if stragglers {
			opts.StragglerFraction = 0.2
			opts.Speculation = true
		}
		res, err := Run(opts, jobs)
		if err != nil {
			return false
		}
		if len(res.Jobs) != n {
			return false
		}
		for _, jr := range res.Jobs {
			if jr.CompletionTime <= 0 || jr.CrossRackBytes < 0 || jr.TaskSeconds <= 0 {
				return false
			}
		}
		return res.Makespan > 0 && res.CrossRackBytes >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanIgnoredByUnplannedSchedulers requires Options.Plan to have no
// effect on Yarn-CS and ShuffleWatcher: experiments hand one plan to every
// scheduler of a comparison, so a plan leaking into a baseline would
// change its numbers. Each run is compared with and without the plan, on
// a clean run and under machine failures, an uplink outage and
// ReplanOnFailure, by Result and by trace bytes.
func TestPlanIgnoredByUnplannedSchedulers(t *testing.T) {
	topo := smallTopo()
	mk := func() []*job.Job {
		j1, j2, j3 := shuffleJob(1), shuffleJob(2), shuffleJob(3)
		j2.Arrival = 3
		j3.AdHoc, j3.Recurring = true, false
		return []*job.Job{j1, j2, j3}
	}
	plan := planFor(t, topo, mk()[:2], planner.MinimizeAvgCompletion)
	if len(plan.Assignments) != 2 {
		t.Fatalf("plan assigns %d jobs, want 2", len(plan.Assignments))
	}
	faults := func(o *Options) {
		o.Failures = []Failure{{At: 2, Machine: 0}, {At: 4, Machine: 5, Downtime: 10}}
		o.LinkFaults = []LinkFault{{At: 3, Rack: 0, Factor: 0}, {At: 9, Rack: 0, Factor: 1}}
		o.ReplanOnFailure = true
	}
	for _, kind := range []Kind{YarnCS, ShuffleWatcher} {
		var clean *Result
		for _, faulty := range []bool{false, true} {
			opts := Options{Cluster: topo, Scheduler: kind, BlockSize: 64e6, Seed: 55}
			if faulty {
				faults(&opts)
			}
			without, withoutTrace := tracedRun(t, opts, mk())
			opts.Plan = plan
			with, withTrace := tracedRun(t, opts, mk())
			if len(withoutTrace) == 0 {
				t.Fatalf("%v faulty=%v: empty trace", kind, faulty)
			}
			if !reflect.DeepEqual(with, without) {
				t.Errorf("%v faulty=%v: Result differs with a plan:\nwith:    %+v\nwithout: %+v", kind, faulty, with, without)
			}
			if !bytes.Equal(withTrace, withoutTrace) {
				t.Errorf("%v faulty=%v: trace differs with a plan (%d vs %d bytes)", kind, faulty, len(withTrace), len(withoutTrace))
			}
			if !faulty {
				clean = without
			} else if reflect.DeepEqual(without, clean) {
				t.Errorf("%v: the faults left the run unchanged (vacuous case)", kind)
			}
		}
	}
}
