package planner

// Deterministic planner-cost model for "plan when you can": how long a
// planning decision takes in *simulated* seconds, as a pure function of
// the problem shape. The runtime charges this latency before a replan's
// assignments take effect, and compares it against Options.PlannerBudget
// to pick a fallback tier. No wall clock is involved anywhere (the
// corralvet wallclock check applies to this package too): the model is a
// calibrated stand-in for the measured planner runtimes of the paper's
// §5.1 scaling discussion, chosen so cost ratios track the algorithmic
// work actually performed.
//
// Work accounting:
//
//   - A full (re)plan's provisioning phase explores the widening chain of
//     J·(R−1)+1 allocations, and each prioritization pass costs
//     O(J log J + J·R) — approximated here as (J+R) units per pass.
//     This is the paper's unpruned chain. The planner's own engine
//     (provision.go) resumes passes from checkpoints and prunes the
//     candidates that can no longer win, but CostFull must not follow it:
//     it sets simulated time, so changing it would change every replan's
//     outcome.
//   - An incremental replan keeps every job's provisioned width and runs
//     a single prioritization pass over the commitments.
//   - Both pay a per-stage term for re-estimating response functions.

const (
	// costBase is the fixed overhead of invoking the planner at all
	// (snapshotting cluster state, building commitments).
	costBase = 0.05
	// costEval is the charge per (job+rack) unit of prioritization work.
	costEval = 1e-4
	// costStage is the charge per job stage for latency re-estimation.
	costStage = 1e-3
)

// CostFull returns the simulated latency of a full two-phase plan over
// jobs jobs on racks racks with stages total stages.
func CostFull(jobs, racks, stages int) float64 {
	if jobs <= 0 {
		return 0
	}
	if racks < 1 {
		racks = 1
	}
	passes := jobs*(racks-1) + 1
	return costBase + float64(costEval*float64(passes)*float64(jobs+racks)) + float64(costStage*float64(stages))
}

// CostIncremental returns the simulated latency of a commitments-only
// incremental replan (fixed widths, single prioritization pass).
func CostIncremental(jobs, racks, stages int) float64 {
	if jobs <= 0 {
		return 0
	}
	if racks < 1 {
		racks = 1
	}
	return costBase/5 + float64(costEval*float64(jobs+racks)) + float64(costStage*float64(stages))
}
