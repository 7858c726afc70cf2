package experiments

// Scale: the datacenter-scale suite (the "scale" registry entry and
// corralsim -exp scale). Each cell builds a synthetic 2k/5k/10k-machine
// cluster, streams a long online W1 arrival window through the Corral
// scheduler and reports the cell's simulated outcomes. Every cell also
// re-verifies the repo's two standing contracts at scale:
//
//   - Determinism: the cell reruns with the same seed and the full
//     runtime.Result must be bit-identical (DeepEqual), exactly the
//     TestBatchDeterminism obligation at 2k-10k machines.
//   - Snapshot/resume equivalence: the cell is captured mid-flight at half
//     its event count, round-tripped through the snapshot codec, resumed,
//     and the resumed Result must again be bit-identical.
//
// Every report value is a pure function of (Size, Seed). The suite reads
// no host clock: the bench/ module's dc-online workload times the 10k cell
// over repeated runs.

import (
	"fmt"
	"reflect"

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

// scaleLadder returns the machine counts the given Size sweeps: the small
// cell is CI's quick gate, medium adds the 5k cell, and large is the full
// 2k/5k/10k nightly ladder.
func scaleLadder(size Size) []int {
	switch size {
	case SizeS:
		return []int{2000}
	case SizeL:
		return []int{2000, 5000, 10000}
	default:
		return []int{2000, 5000}
	}
}

// scaleTopo builds the synthetic cluster for one cell: machines/40 racks of
// 40 machines, 2 slots each, 10 Gbps NICs at 5:1 oversubscription.
func scaleTopo(machines int) topology.Config {
	return topology.Config{
		Racks:            machines / scaleMachinesPerRack,
		MachinesPerRack:  scaleMachinesPerRack,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	}
}

// scaleWorkload generates the cell's online W1 stream. The job count grows
// sublinearly past the 2k cell (160 + machines/50: 200 jobs at 2k, 360 at
// 10k): the offline planner's provisioning phase is superlinear in
// jobs × racks, and the suite exercises the *simulator's* scaling — racks,
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

// scaleCell is one machine count's outcome.
type scaleCell struct {
	racks, jobs int
	res         *runtime.Result
	// planObjective is the offline plan's estimated objective value,
	// reported so any change to planner output shows up as gated drift.
	planObjective float64
	// rerun and resume describe the first divergence of the same-seed
	// rerun and of the snapshot/resume run; "" when the check passed.
	rerun, resume string
}

// runScaleCell plans and runs one cell, then its two verification passes.
func runScaleCell(seed int64, machines int) (scaleCell, error) {
	if machines < scaleMachinesPerRack {
		return scaleCell{}, fmt.Errorf("scale: cell of %d machines is below one %d-machine rack", machines, scaleMachinesPerRack)
	}
	topo := scaleTopo(machines)
	jobs := scaleWorkload(machines, seed)
	plan, err := planJobs(topo, jobs, planner.MinimizeAvgCompletion)
	if err != nil {
		return scaleCell{}, fmt.Errorf("scale %d machines: plan: %w", machines, err)
	}
	// Network stays nil: each run builds its own default allocator, so the
	// verification passes below can share these options concurrently.
	o := runtime.Options{
		Cluster:   topo,
		Scheduler: runtime.Corral,
		Plan:      plan,
		Seed:      seed,
	}
	res, err := runtime.Run(o, workload.Clone(jobs))
	if err != nil {
		return scaleCell{}, fmt.Errorf("scale %d machines: run: %w", machines, err)
	}
	cell := scaleCell{racks: topo.Racks, jobs: len(jobs), res: res, planObjective: plan.ObjectiveValue()}

	// Verification passes are independent of each other, so they fan out
	// over the sweep pool; each writes only its own index-addressed detail
	// slot (sweepsafe).
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
		return scaleCell{}, err
	}
	cell.rerun, cell.resume = details[0], details[1]
	return cell, nil
}

// Scale is the registry entry: the Size's ladder, one cell after another
// (only the intra-cell verification passes parallelize).
func Scale(p Params) (*Report, error) {
	r := newReport("scale: datacenter-scale simulation (same-seed rerun + snapshot/resume per cell)")
	t := &metrics.Table{
		Title:   "online W1 stream under Corral; verification = same-seed rerun + mid-flight snapshot/resume",
		Columns: []string{"machines", "racks", "jobs", "events", "makespan (s)", "deterministic", "resume"},
	}
	verdict := func(detail string) string {
		if detail == "" {
			return "yes"
		}
		return "NO: " + detail
	}
	ladder := scaleLadder(p.Size)
	failures := 0
	for _, m := range ladder {
		c, err := runScaleCell(p.Seed, m)
		if err != nil {
			return nil, err
		}
		res := c.res
		t.AddRow(
			fmt.Sprintf("%d", m), fmt.Sprintf("%d", c.racks), fmt.Sprintf("%d", c.jobs),
			fmt.Sprintf("%d", res.Events), metrics.F(res.Makespan, 2),
			verdict(c.rerun), verdict(c.resume))
		if c.rerun != "" || c.resume != "" {
			failures++
		}
		r.set(fmt.Sprintf("machines_%d_events", m), float64(res.Events))
		r.set(fmt.Sprintf("machines_%d_makespan", m), res.Makespan)
		r.set(fmt.Sprintf("machines_%d_jobs", m), float64(c.jobs))
		r.set(fmt.Sprintf("machines_%d_failed_jobs", m), float64(res.FailedJobs))
		r.set(fmt.Sprintf("machines_%d_plan_objective", m), c.planObjective)
	}
	r.table(t)
	r.set("cells", float64(len(ladder)))
	r.set("verification_failures", float64(failures))
	return r, nil
}
