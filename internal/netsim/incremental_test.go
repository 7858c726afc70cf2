package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"corral/internal/des"
	"corral/internal/topology"
)

// incFlow builds a Flow the way StartPath would have, with an explicit
// interned pathID, for driving allocators directly in tests.
func incFlow(id int64, pathID int32, path []topology.LinkID) *Flow {
	return &Flow{ID: id, Bytes: 1, remaining: 1, path: path, pathID: pathID}
}

// ratesBits captures every flow's rate bit-exactly, in slice order.
func ratesBits(flows []*Flow) []uint64 {
	out := make([]uint64, len(flows))
	for i, f := range flows {
		out[i] = math.Float64bits(f.rate)
	}
	return out
}

// assertSameAsFresh allocates the same flow set under a fresh full grouped
// pass and the MaxMinFair oracle and requires the candidate's rates to
// match both bit for bit.
func assertSameAsFresh(t *testing.T, label string, flows []*Flow, caps []float64) {
	t.Helper()
	got := ratesBits(flows)
	scratch := make([]float64, len(caps))
	newFullPass().Allocate(flows, caps, scratch)
	if want := ratesBits(flows); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rates diverge from a fresh full pass:\n got:  %v\n want: %v", label, got, want)
	}
	MaxMinFair{}.Allocate(flows, caps, scratch)
	if want := ratesBits(flows); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rates diverge from fresh MaxMinFair:\n got:  %v\n want: %v", label, got, want)
	}
}

// TestIncrementalFallbackBoundary drives the dirty set across the
// full-recompute threshold from both sides: with fallbackFrac 0.25 over 8
// single-link groups the boundary is 2 dirty groups, so rounds dirtying
// 1 and 2 groups must take the incremental path and a round dirtying 3
// must fall back — with bit-identical rates throughout. A second
// allocator pins the diff's early exit both ways: a round whose first
// rule alone crosses the threshold falls back, and a round that reaches
// the threshold exactly only through all three rules stays incremental.
func TestIncrementalFallbackBoundary(t *testing.T) {
	const nGroups = 8
	caps := make([]float64, nGroups)
	for i := range caps {
		caps[i] = float64(i+1) * gbps // distinct caps so rates are distinct
	}
	scratch := make([]float64, nGroups)
	// paths[k] is the single-link path of group k (pathID k+1).
	paths := make([][]topology.LinkID, nGroups)
	for k := range paths {
		paths[k] = []topology.LinkID{topology.LinkID(k)}
	}
	var flows []*Flow
	nextID := int64(1)
	addFlow := func(group int) {
		flows = append(flows, incFlow(nextID, int32(group+1), paths[group]))
		nextID++
	}
	for k := 0; k < nGroups; k++ {
		addFlow(k)
	}

	inc := NewIncrementalMaxMin()
	round := func(label string, wantInc, wantFull int) {
		t.Helper()
		inc.Allocate(flows, caps, scratch)
		assertSameAsFresh(t, label, flows, caps)
		if gotInc, gotFull := inc.Rounds(); gotInc != wantInc || gotFull != wantFull {
			t.Fatalf("%s: rounds (inc %d, full %d), want (inc %d, full %d)",
				label, gotInc, gotFull, wantInc, wantFull)
		}
	}

	round("cold cache", 0, 1)          // no cache: full pass
	addFlow(0)                         // group 1 count 1→2
	round("1 dirty ≤ 2", 1, 1)         // under threshold: incremental
	addFlow(1)                         // groups 2,3 change
	addFlow(2)                         //
	round("2 dirty ≤ 2", 2, 1)         // exactly at threshold: incremental
	addFlow(3)                         // groups 4,5,6 change
	addFlow(4)                         //
	addFlow(5)                         //
	round("3 dirty > 2", 2, 2)         // over threshold: full fallback
	round("0 dirty (no change)", 3, 2) // clean cache hit: incremental

	// 16 single-link groups on links 0..15 plus a bridge over links 14
	// and 15 (pathID 17), which joins their groups into one component.
	// Without the bridge the boundary is 0.25·16 = 4 dirty groups.
	const nSingles = 16
	caps2 := make([]float64, nSingles)
	for i := range caps2 {
		caps2[i] = float64(i+1) * gbps
	}
	scratch2 := make([]float64, nSingles)
	var singles []*Flow
	for k := 0; k < nSingles; k++ {
		singles = append(singles, incFlow(int64(100+k), int32(k+1), []topology.LinkID{topology.LinkID(k)}))
	}
	bridge := incFlow(200, nSingles+1, []topology.LinkID{14, 15})
	withBridge := append(append([]*Flow(nil), singles...), bridge)

	inc2 := NewIncrementalMaxMin()
	round2 := func(label string, flows []*Flow, wantInc, wantFull int) {
		t.Helper()
		inc2.Allocate(flows, caps2, scratch2)
		assertSameAsFresh(t, label, flows, caps2)
		if gotInc, gotFull := inc2.Rounds(); gotInc != wantInc || gotFull != wantFull {
			t.Fatalf("%s: rounds (inc %d, full %d), want (inc %d, full %d)",
				label, gotInc, gotFull, wantInc, wantFull)
		}
	}
	round2("bridge cold cache", withBridge, 0, 1)
	// Rule 1 alone: capacity changes on links 0..4 dirty 5 of 17 groups
	// (> 4.25) before any group count is compared.
	for l := 0; l < 5; l++ {
		caps2[l] /= 2
	}
	round2("capacity rule alone > 4.25", withBridge, 0, 2)
	// All three rules, 4 dirty groups of 16: a capacity change on link 0
	// (1 group), a member joining group 2 on link 1 (1 group), and the
	// vanished bridge, whose links 14 and 15 now lie in two components
	// of 1 group each (2 groups).
	caps2[0] /= 2
	flows2 := append(append([]*Flow(nil), singles...), incFlow(300, 2, []topology.LinkID{1}))
	round2("three rules = 4", flows2, 1, 2)
}

// TestIncrementalDirtyRules exercises each cache-invalidation rule in
// isolation — capacity change, vanished bridging path, and pure cache
// reuse — with fallbackFrac 1 so the incremental path always runs when a
// cache exists, and verifies rates stay bit-identical to a full pass.
func TestIncrementalDirtyRules(t *testing.T) {
	caps := []float64{2 * gbps, 3 * gbps, 5 * gbps, 7 * gbps}
	scratch := make([]float64, len(caps))
	pathA := []topology.LinkID{0}
	pathB := []topology.LinkID{1}
	pathC := []topology.LinkID{0, 1} // bridges A's and B's components
	pathD := []topology.LinkID{2, 3}
	fA := incFlow(1, 1, pathA)
	fB := incFlow(2, 2, pathB)
	fC := incFlow(3, 3, pathC)
	fD := incFlow(4, 4, pathD)

	inc := &IncrementalMaxMin{fallbackFrac: 1}

	all := []*Flow{fA, fB, fC, fD}
	inc.Allocate(all, caps, scratch)
	assertSameAsFresh(t, "cold", all, caps)

	// Vanished bridge: dropping C splits {0,1} into two components; both
	// must be re-filled, D's component is untouched.
	noBridge := []*Flow{fA, fB, fD}
	inc.Allocate(noBridge, caps, scratch)
	assertSameAsFresh(t, "vanished bridge", noBridge, caps)

	// Capacity change on link 0 dirties only A's component.
	caps[0] = 1 * gbps
	inc.Allocate(noBridge, caps, scratch)
	assertSameAsFresh(t, "capacity change", noBridge, caps)

	// No change at all: pure cache reuse must reproduce the same rates.
	before := ratesBits(noBridge)
	inc.Allocate(noBridge, caps, scratch)
	if !reflect.DeepEqual(before, ratesBits(noBridge)) {
		t.Fatal("clean cache reuse changed rates")
	}
	assertSameAsFresh(t, "clean reuse", noBridge, caps)

	if gotInc, _ := inc.Rounds(); gotInc != 3 {
		t.Fatalf("incremental path ran %d times, want 3 (vanish, caps, reuse)", gotInc)
	}
}

// TestIncrementalBitIdenticalToGrouped is the differential gate for the
// incremental path: the randomized scripts (starts, cancels, link faults,
// rack-aggregated paths) replayed under the full grouped pass and the
// incremental allocator must produce bit-identical allocations,
// completions and accounting — at the default fallback threshold and with
// the fallback disabled (fallbackFrac 1, maximum incremental coverage).
func TestIncrementalBitIdenticalToGrouped(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	totalInc := 0
	for seed := int64(1); seed <= 8; seed++ {
		ops := genScript(rand.New(rand.NewSource(seed)), c, 300)
		ref := replay(c, ops, newFullPass())
		for _, frac := range []float64{0.25, 1} {
			inc := &IncrementalMaxMin{fallbackFrac: frac}
			got := replay(c, ops, inc)
			if d := diffLogs(ref, got); d != "" {
				t.Fatalf("seed %d frac %v: incremental diverges from grouped: %s", seed, frac, d)
			}
			gotInc, _ := inc.Rounds()
			totalInc += gotInc
		}
	}
	if totalInc == 0 {
		t.Fatal("incremental path never ran across any seed: differential test is vacuous")
	}
}

// TestIncrementalStampWrap replays a script across the wrap of the
// round-stamp counter: the allocator starts three rounds below
// math.MaxInt32, so its fourth build resets every stamp. Component
// labels, link lists and the cache must come through the reset with
// every allocation still bit-identical to the MaxMinFair oracle.
func TestIncrementalStampWrap(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	const start = math.MaxInt32 - 3
	for seed := int64(1); seed <= 3; seed++ {
		ops := genScript(rand.New(rand.NewSource(seed)), c, 300)
		ref := replay(c, ops, MaxMinFair{})
		for _, frac := range []float64{0.25, 1} {
			inc := &IncrementalMaxMin{fallbackFrac: frac}
			inc.round = start
			got := replay(c, ops, inc)
			if d := diffLogs(ref, got); d != "" {
				t.Fatalf("seed %d frac %v: incremental across the stamp wrap diverges from maxmin: %s", seed, frac, d)
			}
			if inc.round <= 0 || inc.round >= start {
				t.Fatalf("seed %d frac %v: round counter ended at %d: the stamps never wrapped", seed, frac, inc.round)
			}
			if gotInc, _ := inc.Rounds(); gotInc == 0 {
				t.Fatalf("seed %d frac %v: incremental path never ran: wrap test is vacuous", seed, frac)
			}
		}
	}
}

// FuzzIncrementalMatchesMaxMinFair replays a generated script (seed, op
// count, rack count) on IncrementalMaxMin, with a fallback fraction of 0,
// 0.25 or 1, and on the MaxMinFair oracle, and requires bit-identical
// logs: rates, completions, per-link bytes and accounting. Plain go test
// runs the seed corpus.
func FuzzIncrementalMatchesMaxMinFair(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(4), uint8(0))
	f.Add(int64(2), uint16(300), uint8(4), uint8(1))
	f.Add(int64(3), uint16(150), uint8(1), uint8(2))
	f.Add(int64(4), uint16(400), uint8(6), uint8(1))
	f.Add(int64(-5), uint16(60), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nOps uint16, racks uint8, fracSel uint8) {
		c := topology.MustNew(topology.Config{
			Racks:            1 + int(racks%6),
			MachinesPerRack:  4,
			SlotsPerMachine:  2,
			NICBandwidth:     10 * gbps,
			Oversubscription: 5,
		})
		frac := []float64{0, 0.25, 1}[fracSel%3]
		ops := genScript(rand.New(rand.NewSource(seed)), c, int(nOps%500))
		ref := replay(c, ops, MaxMinFair{})
		got := replay(c, ops, &IncrementalMaxMin{fallbackFrac: frac})
		if d := diffLogs(ref, got); d != "" {
			t.Fatalf("frac %v: incremental diverges from maxmin: %s", frac, d)
		}
	})
}

// TestIncrementalBitIdenticalUnderPooling runs the differential scripts
// with Flow pooling on the incremental side only: object recycling must be
// invisible to rates, completions and accounting.
func TestIncrementalBitIdenticalUnderPooling(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	for seed := int64(1); seed <= 4; seed++ {
		ops := genScript(rand.New(rand.NewSource(seed)), c, 300)
		ref := replay(c, ops, newFullPass())
		got := replayWith(c, ops, NewIncrementalMaxMin(), true)
		if d := diffLogs(ref, got); d != "" {
			t.Fatalf("seed %d: pooled incremental diverges from the full pass: %s", seed, d)
		}
	}
}

// TestIncrementalReuseAcrossNetworks runs one allocator on two Networks in
// turn, as a shared policy value does across back-to-back simulations. The
// second Network interns its cross-rack path as ID 1 — the ID the first
// Network gave an intra-rack path that was still active, with the same
// member count, when the first run ended. The cache must not carry that
// path's 10 Gbps NIC rate over to a flow bound by the 8 Gbps rack uplink.
func TestIncrementalReuseAcrossNetworks(t *testing.T) {
	inc := NewIncrementalMaxMin()
	c := testCluster(t)

	simA := des.New()
	a := New(simA, c, inc)
	a.Start(0, 1, 20*gbps, 0, 0, nil) // intra-rack, NIC-bound, path ID 1: finishes last
	a.Start(4, 8, 8*gbps, 0, 0, nil)  // cross-rack, uplink-bound, path ID 2
	simA.Run()

	simB := des.New()
	b := New(simB, c, inc)
	var done des.Time
	b.Start(4, 8, 8*gbps, 0, 0, func(*Flow) { done = simB.Now() }) // path ID 1
	simB.Run()
	if math.Abs(float64(done)-1.0) > 1e-9 {
		t.Fatalf("8 Gb cross-rack flow on an 8 Gbps uplink finished at %v with a reused allocator, want 1s", done)
	}
}

// TestFlowPoolingRecyclesObjects proves the pool actually engages: after
// flows retire, new starts reuse the same Flow objects.
func TestFlowPoolingRecyclesObjects(t *testing.T) {
	sim, n := newNet(t, NewIncrementalMaxMin())
	n.SetFlowPooling(true)
	first := n.Start(0, 4, 1*gbps, 0, 0, nil)
	sim.Run()
	if len(n.flowPool) != 1 {
		t.Fatalf("pool holds %d flows after completion, want 1", len(n.flowPool))
	}
	second := n.Start(1, 5, 1*gbps, 0, 0, nil)
	if second != first {
		t.Fatal("retired Flow object was not recycled for the next start")
	}
	sim.Run()
	// Loopback flows must never come from (or land in) the pool.
	loop := n.Start(2, 2, 1*gbps, 0, 0, nil)
	if loop == second {
		t.Fatal("loopback flow was served from the pool")
	}
	sim.Run()
	if len(n.flowPool) != 1 {
		t.Fatalf("pool holds %d flows after loopback completion, want 1 (loopback never pooled)", len(n.flowPool))
	}
}

// TestIncrementalAllocateSteadyStateZeroAlloc pins the zero-alloc
// contract for the incremental path: once cache and scratch are warm,
// recomputes — diff, clean-component reuse and cache refresh included —
// allocate nothing.
func TestIncrementalAllocateSteadyStateZeroAlloc(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	sim := des.New()
	n := New(sim, c, NewIncrementalMaxMin())
	for dst := 0; dst < 20; dst++ {
		for src := 0; src < 20; src++ {
			if src != dst {
				n.Start(src, dst, 100*gbps, 0, 0, nil)
			}
		}
	}
	for sim.Step() && n.ActiveFlows() == 0 {
	}
	inc := NewIncrementalMaxMin()
	inc.Allocate(n.flows, n.caps, n.scratch) // cold full pass, grows scratch
	inc.Allocate(n.flows, n.caps, n.scratch) // first diff, grows compDirty
	avg := testing.AllocsPerRun(100, func() {
		inc.Allocate(n.flows, n.caps, n.scratch)
	})
	if avg != 0 {
		t.Fatalf("steady-state Allocate performs %.1f allocations per call, want 0", avg)
	}
	if gotInc, _ := inc.Rounds(); gotInc == 0 {
		t.Fatal("incremental path never ran: zero-alloc test is vacuous")
	}
}
