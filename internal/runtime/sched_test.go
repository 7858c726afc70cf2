package runtime

import (
	"math/rand"
	"slices"
	"testing"

	"corral/internal/job"
	"corral/internal/planner"
	"corral/internal/topology"
)

// randIntnShuffle is the heartbeat shuffle as it was written against
// math/rand: Fisher-Yates through rand.Rand.Intn. It is the oracle the
// direct-draw shuffleMachineOrder must match value for value and draw for
// draw.
func randIntnShuffle(rng *rand.Rand, order []int32) {
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
}

func identityOrder(n int) []int32 {
	o := make([]int32, n)
	for i := range o {
		o[i] = int32(i)
	}
	return o
}

func TestShuffleMatchesRandIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 40, 56, 2000, 10000} {
		for _, seed := range []int64{1, 7, 42, 1<<40 + 3} {
			rt := &runtime{rngSrc: newCountingSource(seed), machineOrder: identityOrder(n)}
			oracleSrc := newCountingSource(seed)
			oracle, want := rand.New(oracleSrc), identityOrder(n)
			// Consecutive shuffles on one source: a skipped or extra draw in
			// one pass shifts every later permutation.
			for pass := 0; pass < 3; pass++ {
				rt.shuffleMachineOrder()
				randIntnShuffle(oracle, want)
				if !slices.Equal(rt.machineOrder, want) {
					t.Fatalf("n=%d seed=%d pass %d: permutation differs from rand.Intn Fisher-Yates", n, seed, pass)
				}
				if rt.rngSrc.draws != oracleSrc.draws {
					t.Fatalf("n=%d seed=%d pass %d: %d draws, rand.Intn took %d",
						n, seed, pass, rt.rngSrc.draws, oracleSrc.draws)
				}
			}
		}
	}
	// Shuffle sizes never reach the rejection branch in practice (at 10k
	// machines a draw is rejected with probability ~1e-6), so check int31n
	// against Int31n directly on bounds where rejection is common.
	for _, c := range []struct {
		n      int32
		reject bool // a draw is rejected with probability >= 1/4
	}{{1, false}, {3, false}, {1 << 20, false}, {1<<30 + 1, true}, {3 << 29, true}} {
		src, oracleSrc := newCountingSource(9), newCountingSource(9)
		oracle := rand.New(oracleSrc)
		const calls = 2000
		for k := 0; k < calls; k++ {
			if got, want := src.int31n(c.n), oracle.Int31n(c.n); got != want {
				t.Fatalf("int31n(%d) call %d = %d, Int31n = %d", c.n, k, got, want)
			}
		}
		if src.draws != oracleSrc.draws {
			t.Fatalf("int31n(%d): %d draws, Int31n took %d", c.n, src.draws, oracleSrc.draws)
		}
		if c.reject && src.draws == calls {
			t.Fatalf("int31n(%d): no draw was rejected in %d calls (vacuous)", c.n, calls)
		}
	}
}

// newIdleDispatch builds a 250x40 cluster (10k machines) with four
// runnable Corral jobs pinned to two racks each, and fills those eight
// racks' slots. Every dispatch pass is then the common datacenter-scale
// case: runnable demand, and no free slot it may use — a full heartbeat
// shuffle and visit that launches nothing and declines nothing.
func newIdleDispatch(tb testing.TB) *runtime {
	tb.Helper()
	topo := topology.Config{
		Racks:            250,
		MachinesPerRack:  40,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	}
	plan := &planner.Plan{Assignments: map[int]*planner.Assignment{}}
	var jobs []*job.Job
	for id := 1; id <= 4; id++ {
		jobs = append(jobs, shuffleJob(id))
		plan.Assignments[id] = &planner.Assignment{JobID: id, Racks: []int{60 * id, 60*id + 1}, Priority: id}
	}
	rt, err := newRuntime(Options{Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 3}, jobs)
	if err != nil {
		tb.Fatal(err)
	}
	for _, je := range rt.jobs {
		rt.submit(je)
		for _, r := range je.allowedRacks {
			lo, hi := rt.cluster.MachinesInRack(r)
			for m := lo; m < hi; m++ {
				rt.freeSlots[m] = 0
			}
		}
	}
	return rt
}

func TestDispatchZeroAlloc(t *testing.T) {
	rt := newIdleDispatch(t)
	rt.dispatch() // grow the runnableJobs scratch once
	if len(rt.runnableJobs) != 4 {
		t.Fatalf("%d runnable jobs, want 4", len(rt.runnableJobs))
	}
	draws := rt.rngSrc.draws
	if allocs := testing.AllocsPerRun(20, rt.dispatch); allocs != 0 {
		t.Fatalf("dispatch allocates %v objects per pass, want 0", allocs)
	}
	if rt.retryPending || rt.rngSrc.draws == draws {
		t.Fatalf("retry armed %v, draws %d -> %d: the passes were not the intended no-op heartbeats",
			rt.retryPending, draws, rt.rngSrc.draws)
	}
}

// BenchmarkDispatch10k times one dispatch (one heartbeat pass) over the
// 10k-machine cluster of newIdleDispatch.
func BenchmarkDispatch10k(b *testing.B) {
	rt := newIdleDispatch(b)
	rt.dispatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.dispatch()
	}
}
