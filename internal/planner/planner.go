// Package planner implements Corral's offline planning algorithm (§4):
// given predicted characteristics of future jobs, decide for every job j
// the number of racks r_j, the concrete rack set R_j, a start time T_j and
// a priority p_j, so as to minimize makespan (batch scenario) or average
// completion time (online scenario).
//
// The algorithm decomposes into two phases (§4.2):
//
//   - Provisioning: start every job at one rack; repeatedly widen the job
//     with the longest estimated latency by one rack until every job spans
//     the whole cluster. Each of the J·R intermediate allocations is
//     evaluated with the prioritization phase, and the best one wins.
//     At datacenter scale this phase dominates planning wall-clock, so it
//     has a fast engine (provision.go: precomputed widening chain,
//     parallel candidate evaluation, group-compressed objective, pruning
//     of candidates that can no longer win) that chooses exactly the
//     widths of the straightforward serial loop kept in the tests as the
//     differential reference.
//
//   - Prioritization (Fig 4): an extension of LPT/LIST scheduling. Jobs
//     are sorted (batch: widest first, then longest; online: by arrival,
//     ties broken as in batch) and greedily assigned the r_j racks that
//     free up earliest.
//
// Latency estimates come from the response functions of internal/model,
// optionally with the §4.5 data-imbalance penalty.
//
// Determinism obligations: a plan is a pure function of the jobs and
// cluster — sorts are total orders with id tie-breaks, and no randomness,
// wall-clock time, worker count or map-iteration order feeds the result.
package planner

import (
	"fmt"
	"slices"
	"sort"

	"corral/internal/job"
	"corral/internal/model"
	"corral/internal/trace"
)

// Objective selects what the planner minimizes.
type Objective int

const (
	// MinimizeMakespan is the batch scenario: all jobs arrive at time 0 and
	// the last completion time matters.
	MinimizeMakespan Objective = iota
	// MinimizeAvgCompletion is the online scenario: jobs arrive over time
	// and the mean of (completion − arrival) matters.
	MinimizeAvgCompletion
)

func (o Objective) String() string {
	if o == MinimizeMakespan {
		return "makespan"
	}
	return "avg-completion"
}

// Input configures one planning run.
type Input struct {
	Cluster model.Cluster
	Jobs    []*job.Job
	// Alpha is the data-imbalance tradeoff coefficient (§4.5). Negative
	// selects the paper's default (inverse rack-to-core bandwidth); zero
	// disables the penalty.
	Alpha     float64
	Objective Objective
	// Trace, if set, receives plan_start/plan_assign/plan_done events for
	// this invocation. When nil, New and Replan ask the process-wide trace
	// collector for a run tracer (nil again keeps tracing disabled). New
	// stamps the events at time 0, Replan at its now argument.
	Trace *trace.Tracer
}

// tracer resolves the invocation's tracer: the explicit Input.Trace, else
// a collector-registered run, else nil (disabled).
func (in *Input) tracer() *trace.Tracer {
	if in.Trace != nil {
		return in.Trace
	}
	return trace.NewRun(fmt.Sprintf("plan/%s/jobs%d", in.Objective, len(in.Jobs)))
}

// traceAssignments reports a materialized schedule to tr in job-ID order.
func traceAssignments(tr *trace.Tracer, now float64, plan *Plan) {
	if !tr.Enabled() {
		return
	}
	ids := make([]int, 0, len(plan.Assignments))
	for id := range plan.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		a := plan.Assignments[id]
		tr.PlanAssign(now, a.JobID, a.Priority, a.Start, a.Racks)
	}
	tr.PlanDone(now, plan.ObjectiveValue())
}

// Assignment is the planner's output for one job: the tuple {R_j, p_j}
// plus the planned start time and the latency estimate behind it.
type Assignment struct {
	JobID      int
	Racks      []int   // R_j, sorted ascending
	Start      float64 // T_j
	Priority   int     // p_j: 0 is highest; follows planned start order
	EstLatency float64 // L'_j(r_j) used for the schedule
}

// End returns the planned completion time.
func (a *Assignment) End() float64 { return a.Start + a.EstLatency }

// Plan is a complete offline schedule.
type Plan struct {
	Assignments map[int]*Assignment // keyed by job ID
	// Makespan and AvgCompletion are the *estimated* metrics of the chosen
	// schedule under the response-function latencies.
	Makespan      float64
	AvgCompletion float64
	Objective     Objective
}

// ObjectiveValue returns the metric the plan was optimized for.
func (p *Plan) ObjectiveValue() float64 {
	if p.Objective == MinimizeMakespan {
		return p.Makespan
	}
	return p.AvgCompletion
}

// New runs the full two-phase planning algorithm.
func New(in Input) (*Plan, error) {
	if in.Cluster.Racks <= 0 {
		return nil, fmt.Errorf("planner: cluster has %d racks", in.Cluster.Racks)
	}
	return planTwoPhase(in, 0, nil, nil)
}

// planTwoPhase is the shared core behind New, Replan, ReplanIncremental
// and the public wrappers: validate, provision, run the final
// prioritization, materialize. initF seeds per-rack availability times
// (Replan commitments); nil means every rack free at time zero. widths,
// keyed by job ID, fixes each job's rack count in place of provisioning
// (a job without an entry gets one rack, clamped to the cluster); nil
// provisions. now stamps trace events.
func planTwoPhase(in Input, now float64, initF []float64, widths map[int]int) (*Plan, error) {
	J := len(in.Jobs)
	plan := &Plan{Assignments: make(map[int]*Assignment, J), Objective: in.Objective}
	if J == 0 {
		return plan, nil
	}
	// Validate every job before emitting plan_start so a rejected input
	// cannot leave an unbalanced trace (plan_start with no plan_done).
	if err := validateJobs(in.Jobs, plan.Assignments); err != nil {
		return nil, err
	}
	tr := in.tracer()
	tr.PlanStart(now, J, in.Objective.String())
	alpha := in.Alpha
	if alpha < 0 {
		alpha = in.Cluster.DefaultAlpha()
	}

	// Precompute response functions.
	resp := make([]model.ResponseFunc, J)
	for i, j := range in.Jobs {
		resp[i] = in.Cluster.Response(j, alpha)
	}

	// Provisioning phase: explore the J·(R−1)+1 allocation prefix chain,
	// unless the caller fixed the widths.
	var bestRj []int
	if widths == nil {
		bestRj = provision(in, resp, initF)
	} else {
		bestRj = make([]int, J)
		for i, j := range in.Jobs {
			// Keyed map reads are deterministic; only range order is not.
			bestRj[i] = min(max(widths[j.ID], 1), in.Cluster.Racks)
		}
	}

	// Materialize the winning schedule with one final prioritization run.
	sched := newScheduler(in, resp)
	sched.initF = initF
	final := sched.run(bestRj)
	for rank, idx := range final.order {
		j := in.Jobs[idx]
		plan.Assignments[j.ID] = &Assignment{
			JobID:      j.ID,
			Racks:      append([]int(nil), final.racks[idx]...),
			Start:      final.start[idx],
			Priority:   rank,
			EstLatency: resp[idx].At(bestRj[idx]),
		}
	}
	plan.Makespan = final.makespan
	plan.AvgCompletion = final.avgCompletion
	traceAssignments(tr, now, plan)
	return plan, nil
}

// validateJobs checks every job and that no two share an ID: plans are
// keyed by job ID, and jobLess needs unique IDs to be a strict total
// order, on which the evaluator's incremental reposition and its pruning
// both rely. byID is the plan's empty assignment map: each job's ID is
// claimed there with a nil entry, which materialization then fills.
func validateJobs(jobs []*job.Job, byID map[int]*Assignment) error {
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if _, dup := byID[j.ID]; dup {
			return fmt.Errorf("planner: duplicate job ID %d", j.ID)
		}
		byID[j.ID] = nil
	}
	return nil
}

// schedResult captures one prioritization run.
type schedResult struct {
	order         []int // job indices in scheduling order
	racks         [][]int
	start         []float64
	makespan      float64
	avgCompletion float64
}

func (r *schedResult) objective(o Objective) float64 {
	if o == MinimizeMakespan {
		return r.makespan
	}
	return r.avgCompletion
}

// scheduler holds reusable buffers for repeated prioritization runs.
// Planning only uses it for the single materializing run (candidate
// objectives go through the group-compressed evaluator in provision.go);
// the serial reference engine in the tests runs it once per candidate.
type scheduler struct {
	in   Input
	resp []model.ResponseFunc

	order []int
	// initF seeds per-rack availability times (used by Replan to honor
	// commitments); nil means all racks free at time zero.
	initF []float64
	// rackF is kept sorted ascending by (F, rackID) so the r_j earliest
	// racks are always a prefix: the Fig 4 selection in O(R) per job.
	rackF  []rackState
	buf    []rackState
	merged []rackState
	result schedResult
}

type rackState struct {
	f  float64
	id int
}

func newScheduler(in Input, resp []model.ResponseFunc) *scheduler {
	J, R := len(in.Jobs), in.Cluster.Racks
	s := &scheduler{
		in:     in,
		resp:   resp,
		order:  make([]int, J),
		rackF:  make([]rackState, R),
		buf:    make([]rackState, R),
		merged: make([]rackState, 0, R),
	}
	s.result.order = make([]int, J)
	s.result.racks = make([][]int, J)
	s.result.start = make([]float64, J)
	return s
}

// run executes the Fig 4 prioritization for the given per-job rack counts
// and returns the resulting schedule. The returned result's slices are
// reused across calls; callers must copy what they keep.
func (s *scheduler) run(rj []int) *schedResult {
	in := s.in
	J := len(in.Jobs)
	online := in.Objective == MinimizeAvgCompletion

	// Sort and re-index jobs per scenario; jobLess (provision.go) is the
	// single prioritization order shared with the fast-path evaluator.
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(x, y int) bool {
		return jobLess(online, in.Jobs, s.resp, rj, s.order[x], s.order[y])
	})

	for i := range s.rackF {
		f := 0.0
		if s.initF != nil {
			f = s.initF[i]
		}
		s.rackF[i] = rackState{f: f, id: i}
	}
	if s.initF != nil {
		// (f, id) with unique ids is a strict total order: the generic sort
		// yields the same permutation sort.Slice did, without reflection.
		slices.SortFunc(s.rackF, func(x, y rackState) int {
			//corralvet:ok floateq exact identity intended: equal-F racks order by id; any F difference, however small, orders by F
			if x.f != y.f {
				if x.f < y.f {
					return -1
				}
				return 1
			}
			return x.id - y.id
		})
	}

	res := &s.result
	copy(res.order, s.order)
	makespan := 0.0
	sumCompletion := 0.0

	for _, idx := range s.order {
		k := rj[idx]
		lat := s.resp[idx].At(k)
		arr := in.Jobs[idx].Arrival
		if in.Objective == MinimizeMakespan {
			arr = 0
		}
		// R_j := the k racks that free earliest (prefix of sorted rackF).
		start := s.rackF[k-1].f
		if arr > start {
			start = arr
		}
		finish := start + lat

		racks := res.racks[idx]
		racks = racks[:0]
		for i := 0; i < k; i++ {
			racks = append(racks, s.rackF[i].id)
		}
		sort.Ints(racks)
		res.racks[idx] = racks
		res.start[idx] = start

		if finish > makespan {
			makespan = finish
		}
		sumCompletion += finish - arr

		s.rebuildRackF(k, finish)
	}

	res.makespan = makespan
	res.avgCompletion = sumCompletion / float64(J)
	return res
}

// rebuildRackF removes the first k entries (just assigned) and re-inserts
// them with F = finish, preserving (F, id) order in O(R).
func (s *scheduler) rebuildRackF(k int, finish float64) {
	R := len(s.rackF)
	// Collect the k reassigned racks, keeping id order (they share F).
	// ids are unique, so the comparator is a strict total order and the
	// reflection-free generic sort produces the identical permutation the
	// old sort.Slice did — this was the planner's hottest line at
	// datacenter scale until the fast-path evaluator (provision.go) took
	// candidate evaluation off this code path.
	reassigned := s.buf[:0]
	for i := 0; i < k; i++ {
		reassigned = append(reassigned, rackState{f: finish, id: s.rackF[i].id})
	}
	slices.SortFunc(reassigned, func(a, b rackState) int { return a.id - b.id })
	// Merge the untouched suffix with the reassigned entries.
	merged := s.merged[:0]
	i, j := k, 0
	for i < R && j < len(reassigned) {
		a, b := s.rackF[i], reassigned[j]
		//corralvet:ok floateq exact identity intended: the reassigned entries carry bit-identical finish values by construction, ties break by id
		if a.f < b.f || (a.f == b.f && a.id < b.id) {
			merged = append(merged, a)
			i++
		} else {
			merged = append(merged, b)
			j++
		}
	}
	merged = append(merged, s.rackF[i:]...)
	merged = append(merged, reassigned[j:]...)
	copy(s.rackF, merged)
}
