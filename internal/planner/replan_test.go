package planner

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"corral/internal/job"
	"corral/internal/trace"
)

func jobsOf(js ...*job.Job) []*job.Job { return js }

func TestReplanEmpty(t *testing.T) {
	p, err := Replan(Input{Cluster: testClusterModel()}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Assignments) != 0 {
		t.Fatal("empty replan has assignments")
	}
}

func TestReplanRespectsCommitments(t *testing.T) {
	c := testClusterModel()
	c.Racks = 2
	j := mkJob(1, 50, 100, 10, 30, 30)
	// Rack 0 is committed until t=1000; the new job must either run on
	// rack 1 (start >= now) or wait for rack 0.
	p, err := Replan(Input{Cluster: c, Jobs: jobsOf(j)}, 50, []Commitment{{Racks: []int{0}, Until: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	a := p.Assignments[1]
	if len(a.Racks) == 1 && a.Racks[0] == 1 {
		if a.Start < 50 {
			t.Fatalf("start %g before now", a.Start)
		}
	} else {
		// Uses rack 0 (possibly among others): cannot start before 1000.
		if a.Start < 1000 {
			t.Fatalf("job on committed rack starts at %g, want >= 1000", a.Start)
		}
	}
}

func TestReplanClampsPastArrivals(t *testing.T) {
	c := testClusterModel()
	j := mkJob(1, 10, 10, 5, 10, 5)
	j.Arrival = 10 // in the past relative to now=500
	p, err := Replan(Input{Cluster: c, Jobs: jobsOf(j), Objective: MinimizeAvgCompletion}, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Assignments[1].Start < 500 {
		t.Fatalf("replanned start %g before now=500", p.Assignments[1].Start)
	}
}

func TestReplanInvalidCommitmentRack(t *testing.T) {
	c := testClusterModel()
	if _, err := Replan(Input{Cluster: c}, 0, []Commitment{{Racks: []int{99}, Until: 1}}); err == nil {
		t.Fatal("out-of-range commitment rack not rejected")
	}
}

func TestReplanWithoutCommitmentsMatchesFreshPlanShape(t *testing.T) {
	c := testClusterModel()
	rng := rand.New(rand.NewSource(4))
	jobs := randomJobs(rng, 20)
	for _, j := range jobs {
		j.Arrival = 0
	}
	fresh, err := New(Input{Cluster: c, Jobs: jobs, Alpha: -1})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Replan(Input{Cluster: c, Jobs: jobs, Alpha: -1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fresh.Makespan-re.Makespan) > 1e-9 {
		t.Fatalf("replan at t=0 with no commitments differs: %g vs %g",
			fresh.Makespan, re.Makespan)
	}
}

func TestMergePlans(t *testing.T) {
	prev := &Plan{Assignments: map[int]*Assignment{
		1: {JobID: 1, Racks: []int{0}, Start: 0, EstLatency: 10},
		2: {JobID: 2, Racks: []int{1}, Start: 5, EstLatency: 10},
	}, Makespan: 15}
	next := &Plan{Assignments: map[int]*Assignment{
		2: {JobID: 2, Racks: []int{2}, Start: 20, EstLatency: 5},
		3: {JobID: 3, Racks: []int{0}, Start: 12, EstLatency: 5},
	}, Makespan: 25}
	merged := MergePlans(prev, next)
	if len(merged.Assignments) != 3 {
		t.Fatalf("merged %d assignments, want 3", len(merged.Assignments))
	}
	if merged.Assignments[2].Racks[0] != 2 {
		t.Fatal("replan did not override job 2")
	}
	if merged.Assignments[1].Racks[0] != 0 {
		t.Fatal("job 1 lost its assignment")
	}
	// Priorities follow start order: job1 (0), job3 (12), job2 (20).
	if merged.Assignments[1].Priority != 0 ||
		merged.Assignments[3].Priority != 1 ||
		merged.Assignments[2].Priority != 2 {
		t.Fatalf("merged priorities wrong: %d %d %d",
			merged.Assignments[1].Priority,
			merged.Assignments[3].Priority,
			merged.Assignments[2].Priority)
	}
	if merged.Makespan != 25 {
		t.Fatalf("merged makespan %g, want 25", merged.Makespan)
	}
	// Originals untouched.
	if prev.Assignments[2].Racks[0] != 1 {
		t.Fatal("MergePlans mutated its input")
	}
}

// Property: replanned starts never precede now or the commitment horizon
// of any rack they use.
func TestQuickReplanCommitments(t *testing.T) {
	c := testClusterModel()
	f := func(seed int64, n uint8, horizon uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		jobs := randomJobs(rng, int(n%10)+1)
		now := float64(horizon % 500)
		until := now + float64(horizon%1000)
		committed := rng.Intn(c.Racks)
		p, err := Replan(Input{Cluster: c, Jobs: jobs, Alpha: -1}, now,
			[]Commitment{{Racks: []int{committed}, Until: until}})
		if err != nil {
			return false
		}
		for _, a := range p.Assignments {
			if a.Start < now-1e-9 {
				return false
			}
			for _, r := range a.Racks {
				if r == committed && a.Start < until-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Regression: Replan and ReplanIncremental used to clamp j.Arrival = now
// on the caller's *job.Job — mutating jobs shared with the runtime and
// corrupting arrival-based metrics (e.g. Slowdown) computed afterwards.
// Clamping must happen on local copies only.
func TestReplanDoesNotMutateInputJobs(t *testing.T) {
	c := testClusterModel()
	jobs := jobsOf(mkJob(1, 10, 10, 5, 10, 5), mkJob(2, 20, 30, 5, 20, 10))
	jobs[0].Arrival = 10 // both in the past relative to now=500
	jobs[1].Arrival = 42

	if _, err := Replan(Input{Cluster: c, Jobs: jobs, Objective: MinimizeAvgCompletion}, 500, nil); err != nil {
		t.Fatal(err)
	}
	if jobs[0].Arrival != 10 || jobs[1].Arrival != 42 {
		t.Fatalf("Replan mutated input arrivals: got %g, %g", jobs[0].Arrival, jobs[1].Arrival)
	}

	if _, err := ReplanIncremental(Input{Cluster: c, Jobs: jobs, Objective: MinimizeAvgCompletion},
		500, nil, map[int]int{1: 2, 2: 3}); err != nil {
		t.Fatal(err)
	}
	if jobs[0].Arrival != 10 || jobs[1].Arrival != 42 {
		t.Fatalf("ReplanIncremental mutated input arrivals: got %g, %g", jobs[0].Arrival, jobs[1].Arrival)
	}
}

// Regression: MergePlans carried Makespan forward but left AvgCompletion
// silently zero. It now carries next's value (the merged assignments no
// longer know their arrivals, so the online metric cannot be recomputed;
// next's estimate covers the jobs the replan could still influence).
func TestMergePlansCarriesAvgCompletion(t *testing.T) {
	prev := &Plan{Assignments: map[int]*Assignment{
		1: {JobID: 1, Racks: []int{0}, Start: 0, EstLatency: 10},
	}, Makespan: 10, AvgCompletion: 10, Objective: MinimizeAvgCompletion}
	next := &Plan{Assignments: map[int]*Assignment{
		2: {JobID: 2, Racks: []int{1}, Start: 20, EstLatency: 5},
	}, Makespan: 25, AvgCompletion: 12.5, Objective: MinimizeAvgCompletion}
	merged := MergePlans(prev, next)
	if merged.AvgCompletion != 12.5 {
		t.Fatalf("merged AvgCompletion = %g, want next's 12.5", merged.AvgCompletion)
	}
}

// TestPlanTraceBalancedOnValidationError feeds every planning entry point
// inputs it must reject — an invalid profile, a nil job and two jobs
// sharing an ID — and requires the named error with no plan_start, so
// the trace stays balanced.
func TestPlanTraceBalancedOnValidationError(t *testing.T) {
	c := testClusterModel()
	bad := mkJob(1, 10, 10, 10, 10, 10)
	bad.Stages[0].Profile.MapTasks = 0
	inputs := []struct {
		name string
		jobs []*job.Job
		msg  string
	}{
		{"invalid profile", jobsOf(bad), "job 1 stage 0"},
		{"nil job", jobsOf(mkJob(1, 10, 10, 10, 10, 10), nil), "job: nil job"},
		{"duplicate ID", jobsOf(mkJob(1, 10, 10, 10, 10, 10), mkJob(2, 20, 10, 10, 10, 10), mkJob(3, 30, 10, 10, 10, 10), mkJob(2, 40, 10, 10, 10, 10)), "duplicate job ID 2"},
	}

	calls := []func(in Input) error{
		func(in Input) error { _, err := New(in); return err },
		func(in Input) error { _, err := Replan(in, 100, nil); return err },
		func(in Input) error { _, err := ReplanIncremental(in, 100, nil, nil); return err },
	}
	for _, obj := range []Objective{MinimizeMakespan, MinimizeAvgCompletion} {
		for _, bad := range inputs {
			for i, call := range calls {
				tr := trace.New("test")
				err := call(Input{Cluster: c, Jobs: bad.jobs, Objective: obj, Trace: tr})
				if err == nil || !strings.Contains(err.Error(), bad.msg) {
					t.Fatalf("%s %s call %d: error %v, want one containing %q", obj, bad.name, i, err, bad.msg)
				}
				starts, dones := 0, 0
				for _, e := range tr.Events() {
					switch e.Kind {
					case trace.KPlanStart:
						starts++
					case trace.KPlanDone:
						dones++
					}
				}
				if starts != dones {
					t.Fatalf("%s %s call %d: unbalanced trace after validation error: %d plan_start, %d plan_done",
						obj, bad.name, i, starts, dones)
				}
				if starts != 0 {
					t.Fatalf("%s %s call %d: erroring plan emitted %d plan_start events, want 0", obj, bad.name, i, starts)
				}
			}
		}
	}
}
