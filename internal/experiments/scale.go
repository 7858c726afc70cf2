package experiments

// Scale: the datacenter-scale fast-path suite (the "scale" registry entry
// and corralsim -exp scale). Each cell builds a synthetic 2k/5k/10k-machine
// cluster, streams a long online W1 arrival window through the Corral
// scheduler, and reports wall-clock, heap allocations and events/sec
// alongside the usual semantic Result metrics — the numbers the incremental
// max-min recompute and the allocation-lean event core are gated on.
//
// Every cell also re-verifies the repo's two standing contracts at scale:
//
//   - Determinism: the cell reruns with the same seed and the full
//     runtime.Result must be bit-identical (DeepEqual), exactly the
//     TestBatchDeterminism obligation at 2k-10k machines.
//   - Snapshot/resume equivalence: the cell is captured mid-flight at half
//     its event count, round-tripped through the snapshot codec, resumed,
//     and the resumed Result must again be bit-identical (the PR 7
//     crash-resume contract).
//
// Plan wall-clock is a first-class gated metric: each cell carries a
// generous per-cell budget (planBudgetSeconds, ~60–100× above measured
// fast-path times) and a cell whose plan exceeds it fails verification.
// This is the one deliberately host-dependent verdict — it exists to catch a
// regression to pre-fast-path planning times (~80 s per 10k plan), which
// no bit-exact comparison can see.
//
// Determinism obligations: all other semantic outputs (Result fields, job
// counts, the remaining verification verdicts) are pure functions of
// ScaleParams. Wall-clock, allocation and events/sec figures are
// measurements of the host machine and are exported only under
// "wallclock_"-prefixed report keys, which the determinism tests and CI
// comparisons exclude by convention (the same split planning.go uses for
// Fig 5 planner running times).

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"time"

	"corral/internal/job"
	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/workload"
)

// scaleMachinesPerRack fixes the rack width of the synthetic clusters (the
// Fig 5 planner-scaling model uses the same 40-machine racks).
const scaleMachinesPerRack = 40

// ScaleLadder returns the machine counts the given Size sweeps: the small
// cell is CI's quick gate, medium adds the 5k cell, and large is the full
// 2k/5k/10k nightly ladder.
func ScaleLadder(size Size) []int {
	switch size {
	case SizeS:
		return []int{2000}
	case SizeL:
		return []int{2000, 5000, 10000}
	default:
		return []int{2000, 5000}
	}
}

// ScaleParams configures a scale sweep.
type ScaleParams struct {
	Size Size
	Seed int64
	// Machines overrides the Size's ladder with explicit cell sizes; nil
	// selects ScaleLadder(Size).
	Machines []int
	// SkipVerify drops the determinism-rerun and snapshot/resume checks,
	// leaving only the timed run — for pure measurement sweeps.
	SkipVerify bool
}

// ScaleCell is one machine count's outcome.
type ScaleCell struct {
	Machines int
	Racks    int
	Jobs     int
	Result   *runtime.Result
	// PlanObjective is the offline plan's estimated objective value — a
	// pure function of the cell parameters, exported as a semantic key so
	// any change to planner output shows up as gated drift.
	PlanObjective float64

	// Verification verdicts (true when SkipVerify is set: nothing failed).
	// PlanOK is the plan wall-clock budget.
	DeterminismOK bool
	ResumeOK      bool
	PlanOK        bool
	Detail        string // first divergence when a verdict is false

	// Host measurements — excluded from determinism comparisons.
	PlanSeconds  float64
	WallSeconds  float64
	EventsPerSec float64
	AllocObjects float64 // heap objects allocated during the timed run
	AllocMB      float64 // heap bytes allocated during the timed run, MB
}

// ScaleReport is the sweep outcome.
type ScaleReport struct {
	Cells []ScaleCell
}

// Failures returns the cells whose determinism, resume or plan check
// failed.
func (r *ScaleReport) Failures() []string {
	var out []string
	for _, c := range r.Cells {
		if !c.DeterminismOK || !c.ResumeOK || !c.PlanOK {
			out = append(out, fmt.Sprintf("%d machines: %s", c.Machines, c.Detail))
		}
	}
	return out
}

// planBudgetSeconds is the per-cell plan wall-clock gate: machines/4000
// seconds (0.5 s at 2k, 2.5 s at 10k) — since provisioning prunes the
// candidates that cannot win, roughly 100× above measured fast-path times
// at 2k (~5 ms) and 60× at 10k (~40 ms) on a 2-vCPU host, and far below
// the pre-fast-path serial engine (~1 s at 2k, ~80 s at 10k), so a
// regression to serial provisioning trips it even on a much faster host.
// TestProvisionPrunesMostWork guards the pruning itself, by count.
func planBudgetSeconds(machines int) float64 { return float64(machines) / 4000 }

// scaleTopo builds the synthetic cluster for one cell: machines/40 racks of
// 40 machines, 2 slots each, 10 Gbps NICs at 5:1 oversubscription.
func scaleTopo(machines int) topology.Config {
	racks := machines / scaleMachinesPerRack
	if racks < 1 {
		racks = 1
	}
	return topology.Config{
		Racks:            racks,
		MachinesPerRack:  scaleMachinesPerRack,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	}
}

// scaleWorkload generates the cell's online W1 stream. The job count grows
// sublinearly past the 2k cell (160 + machines/50: 200 jobs at 2k, 360 at
// 10k): the offline planner's provisioning phase is superlinear in
// jobs × racks, and the suite measures the *simulator's* scaling — racks,
// machines, concurrent flows — not the planner's, which Fig 5 already
// covers. Bytes and task counts are scaled down so cells complete in CI
// time while keeping thousands of concurrent flows in the air.
func scaleWorkload(machines int, seed int64) []*job.Job {
	return workload.W1(workload.Config{
		Seed:          seed,
		Jobs:          160 + machines/50,
		Scale:         1.0 / 8,
		TaskScale:     1.0 / 8,
		ArrivalWindow: float64(machines) / 20,
	})
}

// runScaleCell measures one cell and runs its verification passes.
func runScaleCell(p ScaleParams, machines int) (ScaleCell, error) {
	cell := ScaleCell{Machines: machines}
	topo := scaleTopo(machines)
	cell.Racks = topo.Racks
	jobs := scaleWorkload(machines, p.Seed)
	cell.Jobs = len(jobs)

	planStart := time.Now() //corralvet:ok wallclock the scale suite measures the planner's real running time per cell
	plan, err := planJobs(topo, jobs, planner.MinimizeAvgCompletion)
	if err != nil {
		return cell, fmt.Errorf("scale %d machines: plan: %w", machines, err)
	}
	cell.PlanSeconds = time.Since(planStart).Seconds() //corralvet:ok wallclock the scale suite measures the planner's real running time per cell
	cell.PlanObjective = plan.ObjectiveValue()

	// Network stays nil: each run builds its own default allocator, so the
	// verification passes below can share these options concurrently.
	o := runtime.Options{
		Cluster:   topo,
		Scheduler: runtime.Corral,
		Plan:      plan,
		Seed:      p.Seed,
	}

	// Timed run: the measurement the CI scale gate and CHANGES.md
	// before/after numbers come from. MemStats deltas count every heap
	// allocation the run makes (the alloc-lean event core's target).
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now() //corralvet:ok wallclock the scale suite measures simulator throughput (wall-clock, events/sec)
	res, err := runtime.Run(o, workload.Clone(jobs))
	if err != nil {
		return cell, fmt.Errorf("scale %d machines: run: %w", machines, err)
	}
	cell.WallSeconds = time.Since(start).Seconds() //corralvet:ok wallclock the scale suite measures simulator throughput (wall-clock, events/sec)
	goruntime.ReadMemStats(&after)
	cell.Result = res
	cell.AllocObjects = float64(after.Mallocs - before.Mallocs)
	cell.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	if cell.WallSeconds > 0 {
		cell.EventsPerSec = float64(res.Events) / cell.WallSeconds
	}

	cell.DeterminismOK, cell.ResumeOK, cell.PlanOK = true, true, true
	if p.SkipVerify {
		return cell, nil
	}

	// Plan wall-clock budget: the deliberately host-dependent gate (see
	// the package comment) that catches a regression to pre-fast-path
	// planning times.
	if budget := planBudgetSeconds(machines); cell.PlanSeconds > budget {
		cell.PlanOK = false
		cell.Detail = fmt.Sprintf("plan took %.2fs, budget %.2fs (fast-path regression?)",
			cell.PlanSeconds, budget)
	}

	// Verification passes are independent of each other, so they fan out
	// over the sweep pool; each writes only its own index-addressed detail
	// slot (sweepsafe), merged serially below.
	details := make([]string, 2)
	if err := pool.For(2, func(i int) error {
		switch i {
		case 0: // determinism rerun: same seed, bit-identical Result
			again, err := runtime.Run(o, workload.Clone(jobs))
			if err != nil {
				return fmt.Errorf("scale %d machines: determinism rerun: %w", machines, err)
			}
			if !reflect.DeepEqual(again, res) {
				details[i] = fmt.Sprintf("rerun diverged (makespan %.6f vs %.6f, events %d vs %d)",
					again.Makespan, res.Makespan, again.Events, res.Events)
			}
		case 1: // snapshot at half the events, codec round-trip, resume
			_, _, mismatch, err := resumeCheck(o, jobs, res.Events/2, runtime.ResumeOptions{}, res)
			if err != nil {
				return fmt.Errorf("scale %d machines: %w", machines, err)
			}
			details[i] = mismatch
		}
		return nil
	}); err != nil {
		return cell, err
	}
	if details[0] != "" {
		cell.DeterminismOK, cell.Detail = false, details[0]
	}
	if details[1] != "" {
		cell.ResumeOK = false
		if cell.Detail == "" {
			cell.Detail = details[1]
		}
	}
	return cell, nil
}

// RunScale runs the scale sweep. Cells run serially (never through the
// sweep pool) so each cell's wall-clock measures an unloaded host; only the
// intra-cell verification passes parallelize.
func RunScale(p ScaleParams) (*ScaleReport, error) {
	cells := p.Machines
	if len(cells) == 0 {
		cells = ScaleLadder(p.Size)
	}
	rep := &ScaleReport{}
	for _, m := range cells {
		if m < scaleMachinesPerRack {
			return nil, fmt.Errorf("scale: cell of %d machines is below one %d-machine rack", m, scaleMachinesPerRack)
		}
		cell, err := runScaleCell(p, m)
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// Scale is the registry entry: the Size's full ladder.
func Scale(p Params) (*Report, error) {
	rep, err := RunScale(ScaleParams{Size: p.Size, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	return scaleReport(rep), nil
}

// scaleReport renders a scale sweep as a Report: semantic keys per cell,
// host measurements under wallclock_ keys, and the verification count.
func scaleReport(rep *ScaleReport) *Report {
	r := newReport("scale: datacenter-scale fast path (wall-clock, allocs, events/sec)")
	t := &metrics.Table{
		Title:   "online W1 stream under Corral; verification = same-seed rerun + mid-flight snapshot/resume + plan budget",
		Columns: []string{"machines", "racks", "jobs", "events", "makespan (s)", "plan (s)", "wall (s)", "ev/s", "allocs/ev", "deterministic", "resume", "plan ok"},
	}
	verdict := func(ok bool, detail string) string {
		if ok {
			return "yes"
		}
		return "NO: " + detail
	}
	failures := 0
	for _, c := range rep.Cells {
		res := c.Result
		allocsPerEv := 0.0
		if res.Events > 0 {
			allocsPerEv = c.AllocObjects / float64(res.Events)
		}
		t.AddRow(
			fmt.Sprintf("%d", c.Machines), fmt.Sprintf("%d", c.Racks), fmt.Sprintf("%d", c.Jobs),
			fmt.Sprintf("%d", res.Events), metrics.F(res.Makespan, 2),
			metrics.F(c.PlanSeconds, 2), metrics.F(c.WallSeconds, 2),
			metrics.F(c.EventsPerSec, 0), metrics.F(allocsPerEv, 1),
			verdict(c.DeterminismOK, c.Detail), verdict(c.ResumeOK, c.Detail),
			verdict(c.PlanOK, c.Detail))
		if !c.DeterminismOK || !c.ResumeOK || !c.PlanOK {
			failures++
		}
		// Semantic keys: pure functions of (Size, Seed, Machines).
		r.set(fmt.Sprintf("machines_%d_events", c.Machines), float64(res.Events))
		r.set(fmt.Sprintf("machines_%d_makespan", c.Machines), res.Makespan)
		r.set(fmt.Sprintf("machines_%d_jobs", c.Machines), float64(c.Jobs))
		r.set(fmt.Sprintf("machines_%d_failed_jobs", c.Machines), float64(res.FailedJobs))
		r.set(fmt.Sprintf("machines_%d_plan_objective", c.Machines), c.PlanObjective)
		// Host measurements: wallclock_ prefix keeps them out of
		// determinism comparisons and CI metric gates.
		r.set(fmt.Sprintf("wallclock_%d_seconds", c.Machines), c.WallSeconds)
		r.set(fmt.Sprintf("wallclock_%d_plan_seconds", c.Machines), c.PlanSeconds)
		r.set(fmt.Sprintf("wallclock_%d_events_per_sec", c.Machines), c.EventsPerSec)
		r.set(fmt.Sprintf("wallclock_%d_allocs_per_event", c.Machines), allocsPerEv)
		r.set(fmt.Sprintf("wallclock_%d_alloc_mb", c.Machines), c.AllocMB)
	}
	r.table(t)
	r.set("cells", float64(len(rep.Cells)))
	r.set("verification_failures", float64(failures))
	return r
}
