package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// TestIncrementalDirtyRules exercises each refill trigger in isolation —
// a vanished bridging path, a capacity change, and no change at all — and
// verifies rates stay bit-identical to a full pass, with the components
// no trigger touched keeping their rates.
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

	inc := NewIncrementalMaxMin()

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

	// No change at all: every component keeps its rates.
	before := ratesBits(noBridge)
	inc.Allocate(noBridge, caps, scratch)
	if !reflect.DeepEqual(before, ratesBits(noBridge)) {
		t.Fatal("clean components changed rates")
	}
	assertSameAsFresh(t, "clean reuse", noBridge, caps)

	if gotInc, gotFull := inc.Rounds(); gotInc != 3 || gotFull != 1 {
		t.Fatalf("rounds (inc %d, full %d), want (3, 1): only the cold call re-fills everything", gotInc, gotFull)
	}
}

// TestIncrementalBitIdenticalToGrouped is the differential gate for the
// incremental path: the randomized scripts (starts, cancels, link faults,
// rack-aggregated paths) replayed under the full pass and the incremental
// allocator must produce bit-identical allocations, completions and
// accounting.
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
		inc := NewIncrementalMaxMin()
		got := replay(c, ops, inc)
		if d := diffLogs(ref, got); d != "" {
			t.Fatalf("seed %d: incremental diverges from the full pass: %s", seed, d)
		}
		gotInc, _ := inc.Rounds()
		totalInc += gotInc
	}
	if totalInc == 0 {
		t.Fatal("incremental path never ran across any seed: differential test is vacuous")
	}
}

// FuzzIncrementalMatchesMaxMinFair replays a generated script (seed, op
// count, rack count) on IncrementalMaxMin, emptying its table never,
// every call or every third call (fracSel), and on the MaxMinFair oracle,
// and requires bit-identical logs: rates, completions, per-link bytes and
// accounting. Plain go test runs the seed corpus.
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
		k := []int{0, 1, 3}[fracSel%3]
		ops := genScript(rand.New(rand.NewSource(seed)), c, int(nOps%500))
		ref := replay(c, ops, MaxMinFair{})
		got := replay(c, ops, &coldEvery{k: k})
		if d := diffLogs(ref, got); d != "" {
			t.Fatalf("cold every %d calls: incremental diverges from maxmin: %s", k, d)
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
// contract under churn: once the table and scratch are warm, calls in
// which a group appears (merging two components), a group vanishes
// (splitting them again) and the other components keep their rates
// allocate nothing — merge, relabel and fill included.
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
	// All-pairs traffic inside each rack: one component per rack.
	for r := 0; r < 4; r++ {
		for a := 5 * r; a < 5*r+5; a++ {
			for b := 5 * r; b < 5*r+5; b++ {
				if a != b {
					n.Start(a, b, 100*gbps, 0, 0, nil)
				}
			}
		}
	}
	n.Start(0, 5, 100*gbps, 0, 0, nil) // cross-rack: bridges racks 0 and 1
	for sim.Step() && n.ActiveFlows() == 0 {
	}
	withBridge := append([]*Flow(nil), n.flows...)
	base := withBridge[:len(withBridge)-1]
	inc := NewIncrementalMaxMin()
	for i := 0; i < 3; i++ { // grow every slice the cycle needs
		inc.Allocate(base, n.caps, n.scratch)
		inc.Allocate(withBridge, n.caps, n.scratch)
	}
	inc.Allocate(base, n.caps, n.scratch)
	inc0, full0 := inc.Rounds()
	const runs = 100
	avg := testing.AllocsPerRun(runs, func() {
		inc.Allocate(withBridge, n.caps, n.scratch) // bridge appears
		inc.Allocate(base, n.caps, n.scratch)       // bridge vanishes
	})
	if avg != 0 {
		t.Fatalf("Allocate under churn performs %.1f allocations per appear/vanish cycle, want 0", avg)
	}
	// AllocsPerRun adds one warm-up run to the measured ones.
	if gotInc, gotFull := inc.Rounds(); gotInc-inc0 != 2*(runs+1) || gotFull != full0 {
		t.Fatalf("churn rounds (inc +%d, full +%d), want every one incremental: racks 2 and 3 keep their rates",
			gotInc-inc0, gotFull-full0)
	}
	assertSameAsFresh(t, "after churn", base, n.caps)
}

// tableMatchesFlows checks the allocator's persistent table against the
// flows it last allocated: every link's base count is the number of flows
// crossing it, and two used links share a component label exactly when
// the flows connect them (by union-find over the flows' paths). It returns
// the number of components.
func tableMatchesFlows(t *testing.T, inc *IncrementalMaxMin, flows []*Flow, nLinks int) int {
	t.Helper()
	parent := make([]int, nLinks)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	count := make([]int, nLinks)
	for _, f := range flows {
		r0 := find(int(f.path[0]))
		for _, l := range f.path {
			count[l]++
			if r := find(int(l)); r != r0 {
				parent[r] = r0
			}
		}
	}
	labelOfRoot := map[int]int32{}
	rootOfLabel := map[int32]int{}
	for l := 0; l < nLinks; l++ {
		if int(inc.base[l]) != count[l] {
			t.Fatalf("link %d: base count %d, %d flows cross it", l, inc.base[l], count[l])
		}
		c := inc.compOf[l]
		if count[l] == 0 {
			if c != -1 {
				t.Fatalf("unused link %d labelled %d", l, c)
			}
			continue
		}
		if c < 0 || !inc.comps[c].inUse {
			t.Fatalf("used link %d has label %d, not a live component", l, c)
		}
		r := find(l)
		if lc, ok := labelOfRoot[r]; ok && lc != c {
			t.Fatalf("link %d: label %d, a connected link has %d", l, c, lc)
		}
		if lr, ok := rootOfLabel[c]; ok && lr != r {
			t.Fatalf("link %d: label %d is shared with an unconnected link", l, c)
		}
		labelOfRoot[r], rootOfLabel[c] = c, r
	}
	live := 0
	for c := range inc.comps {
		if inc.comps[c].inUse {
			live++
		}
	}
	if live != len(labelOfRoot) {
		t.Fatalf("%d live components, the flows form %d", live, len(labelOfRoot))
	}
	return live
}

// TestIncrementalLocalRelabel drives the persistent table through a
// seeded stream in which bridging paths between otherwise separate
// islands repeatedly appear (merging components) and vanish (splitting
// them), mixed with member-count changes and capacity changes. Every
// round must match a cold pass and MaxMinFair by Float64bits, and the
// table must describe the flows' true components. Anti-vacuity: some
// rounds that relabelled still kept other components' rates, and both
// merges and splits happened.
func TestIncrementalLocalRelabel(t *testing.T) {
	const islands = 8 // island k owns links 2k and 2k+1
	const nLinks = 2 * islands
	var paths [][]topology.LinkID
	for k := 0; k < islands; k++ {
		paths = append(paths,
			[]topology.LinkID{topology.LinkID(2 * k)},
			[]topology.LinkID{topology.LinkID(2 * k), topology.LinkID(2*k + 1)})
	}
	firstBridge := len(paths)
	for k := 0; k+1 < islands; k++ { // bridge k joins islands k and k+1
		paths = append(paths, []topology.LinkID{topology.LinkID(2*k + 1), topology.LinkID(2*k + 2)})
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		caps := make([]float64, nLinks)
		for l := range caps {
			caps[l] = float64(1+rng.Intn(7)) * gbps
		}
		scratch := make([]float64, nLinks)
		var flows []*Flow
		nextID := int64(1)
		add := func(p int) {
			flows = append(flows, incFlow(nextID, int32(p+1), paths[p]))
			nextID++
		}
		removeAll := func(p int) {
			flows = slices.DeleteFunc(flows, func(f *Flow) bool { return f.pathID == int32(p+1) })
		}
		for p := 0; p < firstBridge; p++ {
			add(p)
		}
		inc := NewIncrementalMaxMin()
		inc.Allocate(flows, caps, scratch)
		comps := tableMatchesFlows(t, inc, flows, nLinks)
		merges, splits, keptWhileRelabel := 0, 0, 0
		for round := 0; round < 300; round++ {
			bridge := -1
			switch r := rng.Float64(); {
			case r < 0.45:
				bridge = firstBridge + rng.Intn(islands-1)
				if slices.ContainsFunc(flows, func(f *Flow) bool { return f.pathID == int32(bridge+1) }) {
					removeAll(bridge)
				} else {
					for i := 1 + rng.Intn(2); i > 0; i-- {
						add(bridge)
					}
				}
			case r < 0.7:
				add(rng.Intn(firstBridge))
			case r < 0.85:
				if i := rng.Intn(len(flows)); flows[i].pathID <= int32(firstBridge) {
					flows = slices.Delete(flows, i, i+1)
				}
			case r < 0.92:
				caps[rng.Intn(nLinks)] = float64(rng.Intn(4)) * gbps
			}
			inc0, _ := inc.Rounds()
			inc.Allocate(flows, caps, scratch)
			label := fmt.Sprintf("seed %d round %d", seed, round)
			assertSameAsFresh(t, label, flows, caps)
			now := tableMatchesFlows(t, inc, flows, nLinks)
			if bridge >= 0 {
				switch {
				case now < comps:
					merges++
				case now > comps:
					splits++
				}
				if inc1, _ := inc.Rounds(); inc1 > inc0 && now != comps {
					keptWhileRelabel++
				}
			}
			comps = now
		}
		if merges == 0 || splits == 0 || keptWhileRelabel == 0 {
			t.Fatalf("seed %d: %d merges, %d splits, %d relabelling rounds that kept clean components: test is vacuous",
				seed, merges, splits, keptWhileRelabel)
		}
	}
}

// orderCheck wraps a policy and fails the test the first time a Network
// passes flows out of strictly increasing ID order, or a flow ID shows up
// with another path than before.
type orderCheck struct {
	Policy
	t     *testing.T
	path  map[int64]int32
	calls int
}

func (p *orderCheck) Allocate(flows []*Flow, caps []float64, scratch []float64) {
	p.calls++
	for i, f := range flows {
		if i > 0 && f.ID <= flows[i-1].ID {
			p.t.Fatalf("call %d: flow %d at position %d follows flow %d", p.calls, f.ID, i, flows[i-1].ID)
		}
		if id, ok := p.path[f.ID]; ok && id != f.pathID {
			p.t.Fatalf("call %d: flow %d moved from path %d to %d", p.calls, f.ID, id, f.pathID)
		}
		p.path[f.ID] = f.pathID
	}
	p.Policy.Allocate(flows, caps, scratch)
}

// TestNetworkPassesFlowsInIDOrder checks the Policy flow-order contract
// from the Network's side, across starts, cancels, flows started from
// done callbacks, flow pooling and link faults.
func TestNetworkPassesFlowsInIDOrder(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := des.New()
		p := &orderCheck{Policy: NewIncrementalMaxMin(), t: t, path: map[int64]int32{}}
		n := New(sim, c, p)
		n.SetFlowPooling(true)
		machines := c.Config.Racks * c.Config.MachinesPerRack
		var live []*Flow // handles still valid under pooling
		seen := map[*Flow]bool{}
		reused, chained, cancels := 0, 0, 0
		var start func(depth int)
		start = func(depth int) {
			src, dst := rng.Intn(machines), rng.Intn(machines)
			var f *Flow
			f = n.Start(src, dst, rng.Float64()*2*gbps, 0, 0, func(*Flow) {
				live = slices.DeleteFunc(live, func(g *Flow) bool { return g == f })
				if depth < 3 && rng.Intn(2) == 0 {
					chained++
					start(depth + 1)
				}
			})
			if src == dst {
				return // loopback: never pooled, never passed to the policy
			}
			if seen[f] {
				reused++
			}
			seen[f] = true
			live = append(live, f)
		}
		for i := 0; i < 200; i++ {
			sim.At(des.Time(rng.Float64()*3), func() {
				switch r := rng.Float64(); {
				case r < 0.7:
					start(0)
				case r < 0.85:
					if len(live) > 0 {
						k := rng.Intn(len(live))
						n.Cancel(live[k])
						live = slices.Delete(live, k, k+1)
						cancels++
					}
				default:
					n.SetLinkCapacityFactor(topology.LinkID(rng.Intn(c.NumLinks())), []float64{0, 0.5, 1}[rng.Intn(3)])
				}
			})
		}
		sim.At(4, func() {
			for l := 0; l < c.NumLinks(); l++ {
				n.SetLinkCapacityFactor(topology.LinkID(l), 1)
			}
		})
		sim.Run()
		if p.calls == 0 || reused == 0 || chained == 0 || cancels == 0 {
			t.Fatalf("seed %d: %d calls, %d pooled reuses, %d chained starts, %d cancels: test is vacuous",
				seed, p.calls, reused, chained, cancels)
		}
	}
}
