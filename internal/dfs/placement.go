package dfs

import "math/rand"

// replicas is the replica count of every placed block: HDFS's default of
// three, the count §2 and §3.1 describe.
const replicas = 3

// DefaultPlacement is the HDFS-like policy from §2: for each chunk, two
// replicas on one (randomly chosen) rack and the third on a different
// rack, each chunk placed independently and uniformly at random — both the
// racks and the machines within them. The resulting spread is what gives
// HDFS its per-rack CoV of ~0.014 in §6.2.
type DefaultPlacement struct{}

// Name implements Placement.
func (DefaultPlacement) Name() string { return "hdfs-default" }

// Place implements Placement.
func (DefaultPlacement) Place(view *View, rng *rand.Rand) []int {
	racks := view.Cluster.Config.Racks
	primaryRack := rng.Intn(racks)
	var remoteRack int
	if racks == 1 {
		remoteRack = primaryRack
	} else {
		remoteRack = rng.Intn(racks - 1)
		if remoteRack >= primaryRack {
			remoteRack++
		}
	}
	out := make([]int, 0, replicas)
	used := make(map[int]bool, replicas)
	pick := func(rack int) {
		lo, hi := view.Cluster.MachinesInRack(rack)
		for tries := 0; ; tries++ {
			m := lo + rng.Intn(hi-lo)
			if !used[m] || tries > 8 || hi-lo <= len(out) {
				used[m] = true
				out = append(out, m)
				return
			}
		}
	}
	pick(primaryRack)
	for i := 1; i < replicas; i++ {
		pick(remoteRack)
	}
	return out
}

// CorralPlacement implements the joint data/compute placement policy
// (§3.1): one replica of each chunk goes to a randomly chosen rack from
// the job's assigned rack set R_j; the remaining replicas go to another
// rack. Per §4.5 the supplementary heuristic places the last replicas on
// the least-loaded rack, which together with the planner's imbalance
// penalty keeps input data balanced across the cluster.
type CorralPlacement struct {
	Racks []int // the job's assigned racks R_j; must be non-empty
}

// Name implements Placement.
func (CorralPlacement) Name() string { return "corral" }

// Place implements Placement.
func (p CorralPlacement) Place(view *View, rng *rand.Rand) []int {
	if len(p.Racks) == 0 {
		panic("dfs: CorralPlacement with empty rack set")
	}
	primaryRack := p.Racks[rng.Intn(len(p.Racks))]
	var remoteRack int
	if view.Cluster.Config.Racks == 1 {
		remoteRack = primaryRack
	} else {
		remoteRack = view.LeastLoadedRack(primaryRack)
	}
	return assignReplicas(view, primaryRack, remoteRack)
}

// assignReplicas puts the first replica on the primary rack and the
// other two on the remote rack (the 2-plus-1 pattern with the single
// copy on the primary rack, which is the Corral arrangement; for the
// default policy the labels are symmetric so the same split reproduces
// "two on one rack, one on another" with the roles swapped).
func assignReplicas(view *View, primaryRack, remoteRack int) []int {
	out := make([]int, 0, replicas)
	pick := func(rack int) {
		// The machines already chosen are the exclusions.
		m := view.LeastLoadedMachineInRack(rack, out)
		if m < 0 {
			// Rack exhausted (more replicas than machines); reuse allowed.
			m = view.LeastLoadedMachineInRack(rack, nil)
		}
		out = append(out, m)
	}
	pick(primaryRack)
	for i := 1; i < replicas; i++ {
		pick(remoteRack)
	}
	return out
}

// FixedPlacement pins every replica to an explicit machine list; used in
// tests to construct exact scenarios.
type FixedPlacement struct{ Machines []int }

// Name implements Placement.
func (FixedPlacement) Name() string { return "fixed" }

// Place implements Placement.
func (p FixedPlacement) Place(view *View, rng *rand.Rand) []int {
	out := make([]int, len(p.Machines))
	copy(out, p.Machines)
	return out
}
