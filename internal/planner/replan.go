package planner

// Periodic replanning (§3.1): "The offline planner will periodically
// receive updated estimates of future workload, rerun the planning
// problem, and update the guidelines to the cluster scheduler."
//
// A replan happens while earlier jobs are still executing. Their rack
// assignments cannot change (the model assumes no preemption and no
// allocation changes mid-job, §4.1), so they enter the new plan as
// commitments: the committed racks are unavailable until the committed
// job's expected completion. The prioritization phase simply starts from
// non-zero rack-availability times.

import (
	"fmt"
	"sort"

	"corral/internal/job"
	"corral/internal/model"
)

// Commitment reserves a set of racks until an expected completion time —
// one per still-running (or already-scheduled) job from a previous plan.
type Commitment struct {
	Racks []int
	Until float64
}

// commitmentAvailability builds the per-rack initial availability vector:
// every rack free at now, pushed later by any commitment covering it.
// Rack indices are validated here — before any job-count early return —
// so an out-of-range commitment is reported even for an empty replan.
func commitmentAvailability(R int, now float64, commitments []Commitment) ([]float64, error) {
	initF := make([]float64, R)
	for i := range initF {
		initF[i] = now
	}
	for _, c := range commitments {
		for _, r := range c.Racks {
			if r < 0 || r >= R {
				return nil, fmt.Errorf("planner: commitment rack %d out of range", r)
			}
			if c.Until > initF[r] {
				initF[r] = c.Until
			}
		}
	}
	return initF, nil
}

// clampArrivals returns the job list with arrivals earlier than now
// clamped to now. Clamping happens on shallow copies — the caller's
// *job.Job values are shared with the runtime, and mutating their Arrival
// in place corrupted arrival-based metrics (e.g. Slowdown) computed after
// a replan. The input slice is returned unchanged when nothing clamps.
func clampArrivals(jobs []*job.Job, now float64) []*job.Job {
	out := jobs
	copied := false
	for i, j := range jobs {
		// A nil job passes through for planTwoPhase's validation to reject.
		if j == nil || j.Arrival >= now {
			continue
		}
		if !copied {
			out = append([]*job.Job(nil), jobs...)
			copied = true
		}
		cp := *j
		cp.Arrival = now
		out[i] = &cp
	}
	return out
}

// Replan runs the two-phase planning algorithm for the given (pending)
// jobs at time now, honoring commitments from in-flight work. Arrival
// times earlier than now are treated as now; the caller's jobs are never
// mutated.
func Replan(in Input, now float64, commitments []Commitment) (*Plan, error) {
	R := in.Cluster.Racks
	if R <= 0 {
		return nil, fmt.Errorf("planner: cluster has %d racks", R)
	}
	initF, err := commitmentAvailability(R, now, commitments)
	if err != nil {
		return nil, err
	}
	in.Jobs = clampArrivals(in.Jobs, now)
	return planTwoPhase(in, now, initF)
}

// ReplanIncremental is the budget-constrained middle tier of the fallback
// chain: it skips the provisioning phase entirely, keeps each job's
// previously provisioned rack count (widths, keyed by job ID; jobs
// without an entry default to one rack) and runs a single prioritization
// pass against the commitments. Cost: CostIncremental instead of
// CostFull — one pass instead of J·(R−1)+1. Like Replan, it never
// mutates the caller's jobs.
func ReplanIncremental(in Input, now float64, commitments []Commitment, widths map[int]int) (*Plan, error) {
	J := len(in.Jobs)
	R := in.Cluster.Racks
	if R <= 0 {
		return nil, fmt.Errorf("planner: cluster has %d racks", R)
	}
	initF, err := commitmentAvailability(R, now, commitments)
	if err != nil {
		return nil, err
	}

	plan := &Plan{Assignments: make(map[int]*Assignment, J), Objective: in.Objective}
	if J == 0 {
		return plan, nil
	}
	// Validate every job before emitting plan_start so a rejected input
	// cannot leave an unbalanced trace (plan_start with no plan_done).
	if err := validateJobs(in.Jobs, plan.Assignments); err != nil {
		return nil, err
	}
	in.Jobs = clampArrivals(in.Jobs, now)
	tr := in.tracer()
	tr.PlanStart(now, J, in.Objective.String())
	alpha := in.Alpha
	if alpha < 0 {
		alpha = in.Cluster.DefaultAlpha()
	}
	resp := make([]model.ResponseFunc, J)
	rj := make([]int, J)
	for i, j := range in.Jobs {
		resp[i] = in.Cluster.Response(j, alpha)
		// Keyed map reads are deterministic; only range order is not.
		w := widths[j.ID]
		if w < 1 {
			w = 1
		}
		if w > R {
			w = R
		}
		rj[i] = w
	}

	sched := newScheduler(in, resp)
	sched.initF = initF
	final := sched.run(rj)
	for rank, idx := range final.order {
		j := in.Jobs[idx]
		plan.Assignments[j.ID] = &Assignment{
			JobID:      j.ID,
			Racks:      append([]int(nil), final.racks[idx]...),
			Start:      final.start[idx],
			Priority:   rank,
			EstLatency: resp[idx].At(rj[idx]),
		}
	}
	plan.Makespan = final.makespan
	plan.AvgCompletion = final.avgCompletion
	traceAssignments(tr, now, plan)
	return plan, nil
}

// MergePlans overlays a replan onto an existing plan: assignments for jobs
// in next replace (or add to) those in prev; jobs only in prev are kept.
// Priorities are renumbered by planned start so the cluster scheduler sees
// one consistent ordering.
//
// Metrics: Makespan is the max of both plans (committed work from prev may
// outlast everything in next). AvgCompletion is carried from next — the
// merged assignments no longer know their jobs' arrivals, so the online
// metric cannot be recomputed here, and next's value is the freshest
// estimate over the jobs the replan could still influence.
func MergePlans(prev, next *Plan) *Plan {
	merged := &Plan{
		Assignments:   make(map[int]*Assignment, len(prev.Assignments)+len(next.Assignments)),
		Objective:     next.Objective,
		Makespan:      next.Makespan,
		AvgCompletion: next.AvgCompletion,
	}
	for id, a := range prev.Assignments {
		copyA := *a
		merged.Assignments[id] = &copyA
	}
	for id, a := range next.Assignments {
		copyA := *a
		merged.Assignments[id] = &copyA
	}
	// Renumber priorities by (start, jobID).
	ids := make([]int, 0, len(merged.Assignments))
	for id := range merged.Assignments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(x, y int) bool {
		a, b := merged.Assignments[ids[x]], merged.Assignments[ids[y]]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.JobID < b.JobID
	})
	for rank, id := range ids {
		merged.Assignments[id].Priority = rank
	}
	if prev.Makespan > merged.Makespan {
		merged.Makespan = prev.Makespan
	}
	return merged
}
