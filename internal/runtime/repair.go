package runtime

// Re-replication daemon: when a machine dies, blocks that held a replica
// there are copied from a surviving replica to a new machine chosen by
// dfs.PlanRepairs (restoring the 2+1 rack spread). Each repair is a real
// simulated flow, so repair traffic contends with job traffic on the same
// links and shows up in the netsim byte accounting; completed repairs are
// committed back into the store so locality and load accounting follow the
// moved replica.

import (
	"corral/internal/dfs"
	"corral/internal/netsim"
)

// repairKey identifies one block slot being re-replicated.
type repairKey struct {
	blk  *dfs.Block
	slot int
}

// repairOp is one in-flight re-replication copy.
type repairOp struct {
	rep      dfs.Repair
	flow     *netsim.Flow
	done     bool
	canceled bool
}

// onMachineLost reacts to a machine death for the repair daemon: in-flight
// repairs reading from or writing to the dead machine are canceled and
// re-planned, and every block with a replica on it is queued for repair.
// Iteration is over the append-ordered repairList, never the map, so the
// cancel/restart order is deterministic.
func (rt *runtime) onMachineLost(m int) {
	var affected []*dfs.Block
	for _, op := range rt.repairList {
		if op.done || op.canceled {
			continue
		}
		if op.rep.Src == m || op.rep.Dst == m {
			op.canceled = true
			rt.net.Cancel(op.flow)
			delete(rt.repairs, repairKey{op.rep.Block, op.rep.Slot})
			affected = append(affected, op.rep.Block)
		}
	}
	rt.scheduleRepairs(append(affected, rt.store.BlocksOn(m)...))
}

// scheduleRepairs plans and starts repair flows for the given blocks
// (duplicates are fine: slots already being repaired are skipped).
func (rt *runtime) scheduleRepairs(blocks []*dfs.Block) {
	started := make(map[*dfs.Block]bool, len(blocks))
	for _, b := range blocks {
		if started[b] {
			continue
		}
		started[b] = true
		busy := func(slot int) (int, bool) {
			if op, ok := rt.repairs[repairKey{b, slot}]; ok {
				return op.rep.Dst, true
			}
			return 0, false
		}
		for _, rep := range rt.store.PlanRepairs(b, busy) {
			rt.startRepair(rep)
		}
	}
}

// startRepair launches one re-replication flow. Repairs are unattributed
// background traffic (JobID -1, no coflow) — they share links with job
// flows but are not charged to any job.
func (rt *runtime) startRepair(rep dfs.Repair) {
	k := repairKey{rep.Block, rep.Slot}
	op := &repairOp{rep: rep}
	rt.repairs[k] = op
	rt.repairList = append(rt.repairList, op)
	rt.tr.RepairStart(float64(rt.sim.Now()), rep.Src, rep.Dst, rep.Block.Size)
	op.flow = rt.net.Start(rep.Src, rep.Dst, rep.Block.Size, 0, -1, func(*netsim.Flow) {
		if op.canceled {
			return
		}
		op.done = true
		delete(rt.repairs, k)
		rt.store.CommitRepair(op.rep)
		rt.repairBytes += op.rep.Block.Size
		rt.lastRepairDone = float64(rt.sim.Now())
		rt.tr.RepairCommit(float64(rt.sim.Now()), op.rep.Src, op.rep.Dst, op.rep.Block.Size)
	})
}
