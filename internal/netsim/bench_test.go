package netsim

import (
	"testing"

	"corral/internal/des"
	"corral/internal/topology"
)

// benchNetwork builds a paper-scale cluster (50 racks × 40 machines, §6.6)
// carrying ~nFlows exec-shaped shuffle flows. Jobs are heterogeneous the way
// real workload traces are: each destination machine runs a varying number
// of reducers (1–8) pulling rack-aggregated transfers from a varying fan-in
// of source racks (1–10), spread across the whole cluster. Reducers on one
// machine pulling from the same rack share identical link paths — the
// equivalence structure the grouped pass exploits — while the uneven per-link
// loads make bottlenecks cascade through many fill levels, as they do in
// the W1–W4 sweeps.
func benchNetwork(b *testing.B, nFlows int) *Network {
	b.Helper()
	c := topology.MustNew(topology.Config{
		Racks:            50,
		MachinesPerRack:  40,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	sim := des.New()
	n := New(sim, c, MaxMinFair{})
	started := 0
	for dst := 0; started < nFlows; dst = (dst + 137) % (c.Config.Racks * c.Config.MachinesPerRack) {
		dstRack := c.RackOf(dst)
		reducers := 1 + dst%8
		srcRacks := 1 + dst%10
		for s := 0; s < srcRacks && started < nFlows; s++ {
			srcRack := (dstRack + 1 + s*5) % c.Config.Racks
			path := []topology.LinkID{c.RackUplink(srcRack), c.RackDownlink(dstRack), c.MachineDownlink(dst)}
			for r := 0; r < reducers && started < nFlows; r++ {
				n.StartPath(path, true, 1*gbps, CoflowID(dst), 0, nil)
				started++
			}
		}
	}
	return n
}

func benchmarkAllocate(b *testing.B, p Policy, nFlows int) {
	n := benchNetwork(b, nFlows)
	p.Allocate(n.flows, n.caps, n.scratch) // warm any policy scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Allocate(n.flows, n.caps, n.scratch)
	}
}

// The MaxMin rows time the per-flow test oracle and the Grouped rows the
// full grouped pass IncrementalMaxMin falls back to.
func BenchmarkRecomputeMaxMin1k(b *testing.B)  { benchmarkAllocate(b, MaxMinFair{}, 1000) }
func BenchmarkRecomputeMaxMin10k(b *testing.B) { benchmarkAllocate(b, MaxMinFair{}, 10000) }

func BenchmarkRecomputeGrouped1k(b *testing.B)  { benchmarkAllocate(b, newFullPass(), 1000) }
func BenchmarkRecomputeGrouped10k(b *testing.B) { benchmarkAllocate(b, newFullPass(), 10000) }

// benchmarkAllocateChurn measures the recompute-under-churn regime the
// incremental allocator is built for: every iteration one rack uplink's
// capacity flips (a link fault toggling), dirtying that component only, and
// the allocator recomputes. For the stateful allocators the cache is warm —
// this is the per-event cost a long simulation actually pays, as opposed to
// benchmarkAllocate's identical-input rounds.
func benchmarkAllocateChurn(b *testing.B, p Policy, nFlows int) {
	n := benchNetwork(b, nFlows)
	p.Allocate(n.flows, n.caps, n.scratch) // warm policy cache/scratch
	base := make([]float64, len(n.caps))
	copy(base, n.caps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := int(topoRackUplink(n, i%50))
		if i%2 == 0 {
			n.caps[l] = base[l] * 0.9
		} else {
			n.caps[l] = base[l]
		}
		p.Allocate(n.flows, n.caps, n.scratch)
	}
	b.StopTimer()
	if inc, ok := p.(*IncrementalMaxMin); ok {
		if incRounds, _ := inc.Rounds(); b.N > 4 && incRounds == 0 {
			b.Fatal("incremental path never taken: the benchmark is measuring the full pass")
		}
	}
}

// topoRackUplink resolves rack r's uplink on the benchmark cluster.
func topoRackUplink(n *Network, r int) topology.LinkID { return n.cluster.RackUplink(r) }

func BenchmarkRecomputeIncremental1k(b *testing.B) {
	benchmarkAllocateChurn(b, NewIncrementalMaxMin(), 1000)
}
func BenchmarkRecomputeIncremental10k(b *testing.B) {
	benchmarkAllocateChurn(b, NewIncrementalMaxMin(), 10000)
}

// BenchmarkRecomputeGroupedChurn10k is the incremental benchmark's control:
// the same churn stream through the full grouped pass, so the two rows'
// ratio is the incremental win in isolation.
func BenchmarkRecomputeGroupedChurn10k(b *testing.B) {
	benchmarkAllocateChurn(b, newFullPass(), 10000)
}
