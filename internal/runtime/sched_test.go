package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"corral/internal/job"
	"corral/internal/planner"
	"corral/internal/topology"
)

// randIntnShuffle is the heartbeat shuffle as it was written against
// math/rand: Fisher-Yates through rand.Rand.Intn. Over a refSource it is
// the oracle the fused shuffleMachineOrder must match value for value and
// draw for draw.
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

// shuffleRuntime is the part of a runtime the heartbeat shuffle uses: n
// machines in identity order on src.
func shuffleRuntime(src *countingSource, n int) *runtime {
	return &runtime{rngSrc: src, machineOrder: identityOrder(n), machineAt: identityOrder(n)}
}

// checkShuffle runs one shuffleMachineOrder on rt and the oracle shuffle
// on want, and fails unless both the permutations and the draw counts
// agree and machineAt indexes the new order.
func checkShuffle(t testing.TB, rt *runtime, ref *refSource, oracle *rand.Rand, want []int32, what string) {
	t.Helper()
	rt.shuffleMachineOrder()
	randIntnShuffle(oracle, want)
	if !slices.Equal(rt.machineOrder, want) {
		t.Fatalf("%s: permutation differs from rand.Intn Fisher-Yates", what)
	}
	if rt.rngSrc.draws != ref.draws {
		t.Fatalf("%s: %d draws, rand.Intn took %d", what, rt.rngSrc.draws, ref.draws)
	}
	checkPositionIndex(t, rt, what)
}

// checkPositionIndex fails unless machineOrder[machineAt[m]] == m for
// every machine m.
func checkPositionIndex(t testing.TB, rt *runtime, what string) {
	t.Helper()
	for m, at := range rt.machineAt {
		if rt.machineOrder[at] != int32(m) {
			t.Fatalf("%s: machineAt[%d] = %d, but machineOrder[%d] = %d", what, m, at, at, rt.machineOrder[at])
		}
	}
}

func TestShuffleMatchesRandIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 40, 56, 2000, 10000} {
		for _, seed := range []int64{1, 7, 42, 1<<40 + 3} {
			rt := shuffleRuntime(newCountingSource(seed), n)
			ref := newRefSource(seed)
			oracle, want := rand.New(ref), identityOrder(n)
			// Consecutive shuffles on one source: a skipped or extra draw in
			// one pass shifts every later permutation.
			for pass := 0; pass < 3; pass++ {
				checkShuffle(t, rt, ref, oracle, want, fmt.Sprintf("n=%d seed=%d pass %d", n, seed, pass))
			}
		}
	}
	// A pass refills the ring wherever the stream position puts the end of
	// it: consuming k draws first moves that refill to every offset within
	// a pass, and two passes over n=2000 cross several refills each.
	for _, n := range []int{700, 2000} {
		for k := 0; k < rngLen; k++ {
			rt := shuffleRuntime(newCountingSource(5), n)
			ref := newRefSource(5)
			oracle, want := rand.New(ref), identityOrder(n)
			for d := 0; d < k; d++ {
				rt.rngSrc.Uint64()
				ref.Uint64()
			}
			for pass := 0; pass < 2; pass++ {
				checkShuffle(t, rt, ref, oracle, want, fmt.Sprintf("n=%d after %d draws, pass %d", n, k, pass))
			}
		}
	}
	// Shuffle sizes never reach the rejection branch in practice (at 10k
	// machines a draw is rejected with probability ~1e-6), so check the
	// shared redrawAbove, through the int31n test helper, against Int31n
	// on bounds where rejection is common.
	for _, c := range []struct {
		n      int32
		reject bool // a draw is rejected with probability >= 1/4
	}{{1, false}, {3, false}, {1 << 20, false}, {1<<30 + 1, true}, {3 << 29, true}} {
		src, ref := newCountingSource(9), newRefSource(9)
		oracle := rand.New(ref)
		const calls = 2000
		for k := 0; k < calls; k++ {
			if got, want := src.int31n(c.n), oracle.Int31n(c.n); got != want {
				t.Fatalf("int31n(%d) call %d = %d, Int31n = %d", c.n, k, got, want)
			}
		}
		if src.draws != ref.draws {
			t.Fatalf("int31n(%d): %d draws, Int31n took %d", c.n, src.draws, ref.draws)
		}
		if c.reject && src.draws == calls {
			t.Fatalf("int31n(%d): no draw was rejected in %d calls (vacuous)", c.n, calls)
		}
	}
}

// TestShuffleRejectionMatchesRandIntn drives the fused shuffle's rejection
// branch, which a real stream reaches about once per 200 10k-machine
// passes. Planted all-ones ring entries read as MaxInt32, above the
// rejection bound of every bound that is not a power of two: two
// back-to-back rejections early in the pass, and one on the ring's last
// entry, whose redraw refills the ring. A fourth lands on the step with
// n = 512, where Int31n masks and the shuffle's redrawAbove must accept
// without a redraw. The oracle is rand.Intn over a copy of the planted
// source.
func TestShuffleRejectionMatchesRandIntn(t *testing.T) {
	const n = 1000
	src := newCountingSource(3)
	src.ring[5], src.ring[6], src.ring[rngLen-1] = ^uint64(0), ^uint64(0), ^uint64(0)
	src.ring[n-512+2] = ^uint64(0) // step i = 511 (n = 512), after two redraws
	planted := *src
	rt := shuffleRuntime(src, n)
	oracle, want := rand.New(&planted), identityOrder(n)
	for pass := 0; pass < 2; pass++ {
		rt.shuffleMachineOrder()
		randIntnShuffle(oracle, want)
		if !slices.Equal(rt.machineOrder, want) {
			t.Fatalf("pass %d: permutation differs from rand.Intn Fisher-Yates", pass)
		}
		if src.draws != planted.draws {
			t.Fatalf("pass %d: %d draws, rand.Intn took %d", pass, src.draws, planted.draws)
		}
		checkPositionIndex(t, rt, fmt.Sprintf("pass %d", pass))
	}
	if rejected := src.draws - 2*(n-1); rejected != 3 {
		t.Fatalf("%d draws rejected, want the 3 planted ones", rejected)
	}
}

// newPinnedDispatch builds a 250x40 cluster (10k machines) with four
// runnable Corral jobs pinned to two racks each, submitted, with the given
// delay-scheduling patience (0 is the default).
func newPinnedDispatch(tb testing.TB, patience int) *runtime {
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
	rt, err := newRuntime(Options{
		Cluster: topo, Scheduler: Corral, Plan: plan, BlockSize: 64e6, Seed: 3,
		DelayNodeLocal: patience, DelayRackLocal: patience,
	}, jobs)
	if err != nil {
		tb.Fatal(err)
	}
	for _, je := range rt.jobs {
		rt.submit(je)
	}
	return rt
}

// newIdleDispatch is newPinnedDispatch with the eight pinned racks' slots
// filled. Every dispatch pass is then the common datacenter-scale case:
// runnable demand, and no free slot it may use — a full heartbeat shuffle
// and a visit that launches nothing and declines nothing.
func newIdleDispatch(tb testing.TB) *runtime {
	tb.Helper()
	rt := newPinnedDispatch(tb, 0)
	for _, je := range rt.jobs {
		for _, r := range je.allowedRacks {
			lo, hi := rt.cluster.MachinesInRack(r)
			for m := lo; m < hi; m++ {
				rt.freeSlots[m] = 0
			}
		}
	}
	return rt
}

// newBusyDispatch is newPinnedDispatch with every slot taken except on
// five machines of each pinned rack: 40 eligible machines, dc-online's
// median per pass. None of the 40 holds an input block of a pending map,
// and the jobs wait for node-local slots forever, so every visit declines
// and a pass launches nothing. With anyRack, the first job in dispatch
// order loses its rack constraint, and passes take the walk over the
// whole heartbeat order.
func newBusyDispatch(tb testing.TB, anyRack bool) *runtime {
	tb.Helper()
	rt := newPinnedDispatch(tb, math.MaxInt32)
	for m := range rt.freeSlots {
		rt.freeSlots[m] = 0
	}
	for _, je := range rt.jobs {
		for _, r := range je.allowedRacks {
			lo, hi := rt.cluster.MachinesInRack(r)
			free := 0
			for m := lo; m < hi && free < 5; m++ {
				if !holdsPendingInput(rt, m) {
					rt.freeSlots[m] = rt.cluster.Config.SlotsPerMachine
					free++
				}
			}
			if free < 5 {
				tb.Fatalf("rack %d has %d machines without a pending map's input, want 5", r, free)
			}
		}
	}
	if anyRack {
		rt.byOrder[0].allowedRacks = nil
	}
	return rt
}

// holdsPendingInput reports whether some job has a map that would run
// node-local on machine m.
func holdsPendingInput(rt *runtime, m int) bool {
	for _, je := range rt.jobs {
		for _, st := range je.stages {
			if bucketLen(&st.byMachine, m) > 0 {
				return true
			}
		}
	}
	return false
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

	// Busy passes, on the constrained visit and on the anyRack walk: 40
	// machines visited and declined each time.
	for _, anyRack := range []bool{false, true} {
		rt := newBusyDispatch(t, anyRack)
		rt.dispatch() // grow the scratch and arm the retry once
		// Each visit is declined by the job pinned to its rack; on the
		// anyRack walk the unconstrained job also declines the 30 machines
		// of the other jobs' racks.
		wantRacks, wantDeclines := 8, 40
		if anyRack {
			wantRacks, wantDeclines = 0, 70
		}
		if len(rt.runnableJobs) != 4 || len(rt.demandRacks) != wantRacks || !rt.retryPending {
			t.Fatalf("anyRack %v: %d runnable jobs, %d demanded racks, retry armed %v; want 4, %d, true",
				anyRack, len(rt.runnableJobs), len(rt.demandRacks), rt.retryPending, wantRacks)
		}
		skips := 0
		for _, je := range rt.jobs {
			skips -= je.skips
		}
		const passes = 20
		if allocs := testing.AllocsPerRun(passes, rt.dispatch); allocs != 0 {
			t.Fatalf("anyRack %v: busy dispatch allocates %v objects per pass, want 0", anyRack, allocs)
		}
		for _, je := range rt.jobs {
			skips += je.skips
		}
		// AllocsPerRun makes one warm-up call besides the measured ones.
		if skips != wantDeclines*(passes+1) || rt.runningPlanned+rt.runningAdhoc != 0 {
			t.Fatalf("anyRack %v: %d declines and %d launches over %d passes, want %d declines a pass and none launched",
				anyRack, skips, rt.runningPlanned+rt.runningAdhoc, passes+1, wantDeclines)
		}
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

// BenchmarkDispatch10kBusy times one dispatch over newBusyDispatch's
// constrained cluster: a heartbeat shuffle and 40 declined visits.
func BenchmarkDispatch10kBusy(b *testing.B) {
	rt := newBusyDispatch(b, false)
	rt.dispatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.dispatch()
	}
}
