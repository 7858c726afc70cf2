package runtime

// Failure-triggered replanning (Options.ReplanOnFailure): when a planned
// job loses a majority of its rack set's machines, or one of its racks is
// isolated by an uplink failure, the runtime re-invokes the offline
// planner instead of only dropping constraints. Running jobs with intact
// constraints enter the replan as commitments (their racks are busy until
// their planned completion), and racks currently blocked by faults are
// committed until their known recovery time — fault schedules are declared
// up front, so recovery times are computable. Affected and not-yet-started
// planned jobs receive fresh rack sets and priorities.
//
// Constraint dropping remains the safety net: failMachine/applyLinkFault
// drop an affected job's constraints before calling into here, so if the
// replan errors out — or hands a job racks that are themselves unusable —
// the job still runs unconstrained, exactly as in the paper's §3.1
// fallback.

import (
	"math"
	"sort"

	"corral/internal/des"
	"corral/internal/model"
	"corral/internal/planner"
)

// farFuture stands in for "no scheduled recovery" when committing blocked
// racks: effectively never available.
const farFuture = 1e15

// replanOnFailure re-runs the planner at the current simulated time.
func (rt *runtime) replanOnFailure() {
	if rt.opts.Scheduler != Corral || rt.opts.Plan == nil {
		return
	}
	now := float64(rt.sim.Now())

	var commitments []planner.Commitment
	for r := 0; r < rt.cluster.Config.Racks; r++ {
		if until := rt.rackBlockedUntil(r, now); until > now {
			commitments = append(commitments, planner.Commitment{Racks: []int{r}, Until: until})
		}
	}

	var replanJobs []*jobExec
	in := planner.Input{
		Cluster:   model.FromTopology(rt.opts.Cluster),
		Alpha:     -1,
		Objective: rt.opts.Plan.Objective,
	}
	for _, je := range rt.jobs {
		if je.done() || je.assignment == nil {
			continue
		}
		if je.allowedRacks != nil {
			// Unaffected by the fault: keep it where it was planned and
			// commit its racks until the planned completion (or now, if
			// already overdue). Only jobs whose constraints were actually
			// dropped are replanned — re-placing healthy jobs would let one
			// fault perturb the whole schedule.
			until := je.assignment.End()
			if until < now {
				until = now
			}
			commitments = append(commitments, planner.Commitment{
				Racks: append([]int(nil), je.allowedRacks...),
				Until: until,
			})
			continue
		}
		// Constraints dropped by the fault: replan. Replan clamps stale
		// arrivals on its own copies, so the runtime's job records keep
		// their absolute arrivals for metrics.
		in.Jobs = append(in.Jobs, je.job)
		replanJobs = append(replanJobs, je)
	}
	if len(in.Jobs) == 0 {
		return
	}
	in.Trace = rt.tr

	budget := rt.opts.PlannerBudget
	if budget <= 0 {
		// Legacy behavior: the full replan is instantaneous and free.
		rt.replans++
		rt.tr.Replan(now, len(in.Jobs))
		next, err := planner.Replan(in, now, commitments)
		if err != nil {
			return // constraint-drop fallback already applied
		}
		rt.adoptReplan(replanJobs, next)
		return
	}

	// Budgeted planning: charge the deterministic cost model and walk the
	// fallback chain — full plan → incremental replan → greedy placement —
	// until a tier fits the budget. Planner-invoking tiers compute their
	// plan against the state at now+cost (that is when it lands) and adopt
	// it then; cluster conditions may shift meanwhile, so adoptReplan
	// re-validates every rack set at adoption time.
	J, R := len(in.Jobs), rt.cluster.Config.Racks
	S := 0
	for _, j := range in.Jobs {
		S += len(j.Stages)
	}
	if cost := planner.CostFull(J, R, S); cost <= budget {
		rt.degradations.Full++
		rt.replans++
		rt.tr.Replan(now, J)
		next, err := planner.Replan(in, now+cost, commitments)
		if err != nil {
			return
		}
		rt.sim.After(des.Time(cost), func() { rt.adoptReplan(replanJobs, next) })
		return
	} else {
		rt.tr.PlanBudgetExceeded(now, cost)
	}
	if cost := planner.CostIncremental(J, R, S); cost <= budget {
		rt.degradations.Incremental++
		rt.replans++
		rt.tr.Replan(now, J)
		rt.tr.Degrade(now, 1, J)
		widths := make(map[int]int, len(replanJobs))
		for _, je := range replanJobs {
			if je.assignment != nil {
				widths[je.job.ID] = len(je.assignment.Racks)
			}
		}
		next, err := planner.ReplanIncremental(in, now+cost, commitments, widths)
		if err != nil {
			return
		}
		rt.sim.After(des.Time(cost), func() { rt.adoptReplan(replanJobs, next) })
		return
	}
	// Greedy tier: no planner invocation at all. The triggering fault
	// already dropped the affected jobs' constraints, so they dispatch
	// unconstrained — exactly the Yarn-CS placement discipline.
	rt.degradations.Greedy++
	rt.tr.Degrade(now, 2, J)
}

// adoptReplan installs a replan's fresh assignments for the jobs whose
// constraints the triggering fault dropped. Jobs that finished, failed or
// regained constraints while the plan was being computed are skipped, as
// are rack sets no longer usable at adoption time (the constraint-drop
// fallback then stands).
func (rt *runtime) adoptReplan(replanJobs []*jobExec, next *planner.Plan) {
	changed := false
	for _, je := range replanJobs {
		if je.done() || je.allowedRacks != nil {
			continue
		}
		a := next.Assignments[je.job.ID]
		if a == nil || len(a.Racks) == 0 || !rt.racksUsable(a.Racks) {
			continue // stay unconstrained rather than adopt unusable racks
		}
		je.assignment = a
		je.allowedRacks = append([]int(nil), a.Racks...)
		changed = true
	}
	if changed {
		rt.sortDispatchOrder()
		rt.requestDispatch()
	}
}

// racksUsable reports whether a rack set is currently worth constraining
// to: a majority of its machines alive and no rack isolated by a failed
// uplink.
func (rt *runtime) racksUsable(racks []int) bool {
	for _, r := range racks {
		if rt.rackLinkFactor[r] == 0 {
			return false
		}
	}
	return !rt.majorityDead(racks)
}

// rackBlockedUntil estimates when rack r becomes (and stays) usable: the
// latest of its uplink outages' restoration times — current or scheduled;
// the fault schedule is declared up front, so "plan when you can" gets to
// see outages that have not happened yet — and the recovery time that
// brings a majority of its machines back.
func (rt *runtime) rackBlockedUntil(r int, now float64) float64 {
	until := now
	// Walk the uplink schedule in time order; whenever an outage starts at
	// or after now, the rack is committed until the restore that follows.
	factor := rt.rackLinkFactor[r]
	if factor == 0 {
		until = farFuture
	}
	for _, lf := range sortedFaultsFor(rt.opts.LinkFaults, r) {
		if lf.At < now {
			continue
		}
		if lf.Factor == 0 {
			factor, until = 0, farFuture
		} else if factor == 0 {
			factor = lf.Factor
			until = lf.At
		}
	}
	lo, hi := rt.cluster.MachinesInRack(r)
	total := hi - lo
	var recoveries []float64
	for m := lo; m < hi; m++ {
		if rt.dead[m] {
			recoveries = append(recoveries, rt.recoverAt[m])
		}
	}
	if len(recoveries)*2 > total {
		sort.Float64s(recoveries)
		alive := total - len(recoveries)
		k := 0
		for alive*2 <= total && k < len(recoveries) {
			alive++
			k++
		}
		t := recoveries[k-1]
		if math.IsInf(t, 1) {
			t = farFuture
		}
		if t > until {
			until = t
		}
	}
	return until
}

// sortedFaultsFor returns rack r's uplink faults in time order (stable, so
// same-instant faults keep declaration order, matching the DES tie-break).
func sortedFaultsFor(faults []LinkFault, r int) []LinkFault {
	var out []LinkFault
	for _, lf := range faults {
		if lf.Rack == r {
			out = append(out, lf)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
