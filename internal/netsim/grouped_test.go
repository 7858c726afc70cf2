package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"corral/internal/des"
	"corral/internal/topology"
)

// scriptOp is one step of a randomized differential script. The same script
// replays against a MaxMinFair (oracle) network and an IncrementalMaxMin
// network; any divergence in rates, completion times or accounting fails
// the test.
type scriptOp struct {
	at     des.Time
	kind   int // 0 start machine-pair, 1 start rack-aggregated, 2 cancel, 3 link fault
	src    int
	dst    int
	bytes  float64
	target int     // cancel: index into started flows
	link   int     // fault: link id
	factor float64 // fault: capacity factor
}

// genScript builds a deterministic op mix: machine-pair flows (in-rack,
// cross-rack and loopback), exec-shaped rack-aggregated StartPath flows,
// mid-transfer cancels, and link faults including full outages.
func genScript(rng *rand.Rand, c *topology.Cluster, nOps int) []scriptOp {
	machines := c.Config.Racks * c.Config.MachinesPerRack
	ops := make([]scriptOp, 0, nOps)
	started := 0
	for i := 0; i < nOps; i++ {
		op := scriptOp{at: des.Time(rng.Float64() * 3.0)}
		switch r := rng.Float64(); {
		case r < 0.55 || started == 0:
			op.kind = 0
			op.src = rng.Intn(machines)
			if rng.Float64() < 0.1 {
				op.dst = op.src // loopback
			} else {
				op.dst = rng.Intn(machines)
			}
			op.bytes = rng.Float64() * 4 * gbps
			if rng.Float64() < 0.05 {
				op.bytes = 0
			}
			started++
		case r < 0.75:
			op.kind = 1
			op.src = rng.Intn(c.Config.Racks) // source rack
			op.dst = rng.Intn(machines)       // destination machine
			op.bytes = rng.Float64() * 4 * gbps
			started++
		case r < 0.9:
			op.kind = 2
			op.target = rng.Intn(started)
		default:
			op.kind = 3
			op.link = rng.Intn(c.NumLinks())
			op.factor = []float64{0, 0.3, 1}[rng.Intn(3)]
		}
		ops = append(ops, op)
	}
	return ops
}

// rateSnap is one allocation observed through OnAllocate: every active
// flow's rate, bit-exact, in network flow order.
type rateSnap struct {
	at    des.Time
	ids   []int64
	rates []uint64
}

type runLog struct {
	snaps       []rateSnap
	completions map[int64]des.Time
	links       []uint64 // every link's LinkBytes, bit-exact, by link id
	cross       uint64
	total       uint64
	served      int64
	// sent[l] sums Bytes − Remaining over the flows crossing link l, as
	// they stand at the end; nil under pooling, where handles are reused.
	sent []float64
}

// diffLogs returns "" when got matches the reference log bit for bit, and
// otherwise a description of the first divergence.
func diffLogs(ref, got runLog) string {
	if len(ref.snaps) != len(got.snaps) {
		return fmt.Sprintf("%d allocations, want %d", len(got.snaps), len(ref.snaps))
	}
	for i := range ref.snaps {
		if !reflect.DeepEqual(ref.snaps[i], got.snaps[i]) {
			return fmt.Sprintf("allocation %d diverges:\n want: %+v\n got:  %+v", i, ref.snaps[i], got.snaps[i])
		}
	}
	if !reflect.DeepEqual(ref.completions, got.completions) {
		return "completion times diverge"
	}
	for l := range ref.links {
		if ref.links[l] != got.links[l] {
			return fmt.Sprintf("link %d carried %v bytes, want %v", l,
				math.Float64frombits(got.links[l]), math.Float64frombits(ref.links[l]))
		}
	}
	if ref.cross != got.cross || ref.total != got.total || ref.served != got.served {
		return fmt.Sprintf("accounting diverges: cross %x total %x served %d, want cross %x total %x served %d",
			got.cross, got.total, got.served, ref.cross, ref.total, ref.served)
	}
	return ""
}

// replay runs the script against a fresh simulator/network under p and
// returns the full bit-exact allocation log.
func replay(c *topology.Cluster, ops []scriptOp, p Policy) runLog {
	return replayWith(c, ops, p, false)
}

// replayWith is replay with optional Flow-object pooling. Under pooling a
// handle is dead once its flow completes or is canceled, so the cancel ops
// consult a liveness table — skipping a dead handle is exactly the
// reference's cancel-finished-flow no-op.
func replayWith(c *topology.Cluster, ops []scriptOp, p Policy, pooling bool) runLog {
	sim := des.New()
	n := New(sim, c, p)
	n.SetFlowPooling(pooling)
	log := runLog{completions: make(map[int64]des.Time)}
	n.OnAllocate = func() {
		s := rateSnap{at: sim.Now()}
		for _, f := range n.flows {
			s.ids = append(s.ids, f.ID)
			s.rates = append(s.rates, math.Float64bits(f.rate))
		}
		log.snaps = append(log.snaps, s)
	}
	var handles []*Flow
	var dead []bool
	register := func(f *Flow) { handles = append(handles, f); dead = append(dead, false) }
	onDone := func() func(*Flow) {
		idx := len(handles) // the flow this callback belongs to
		return func(f *Flow) {
			dead[idx] = true
			log.completions[f.ID] = sim.Now()
		}
	}
	for _, op := range ops {
		op := op
		sim.At(op.at, func() {
			switch op.kind {
			case 0:
				register(n.Start(op.src, op.dst, op.bytes, 0, 0, onDone()))
			case 1:
				// Exec-shaped rack-aggregated shuffle path (see exec.go).
				var path []topology.LinkID
				cross := c.RackOf(op.dst) != op.src
				if cross {
					path = []topology.LinkID{c.RackUplink(op.src), c.RackDownlink(c.RackOf(op.dst)), c.MachineDownlink(op.dst)}
				} else {
					path = []topology.LinkID{c.MachineDownlink(op.dst)}
				}
				register(n.StartPath(path, cross, op.bytes, 0, 0, onDone()))
			case 2:
				if op.target < len(handles) && !dead[op.target] {
					n.Cancel(handles[op.target])
					dead[op.target] = true // retired at the next recompute
				}
			case 3:
				n.SetLinkCapacityFactor(topology.LinkID(op.link), op.factor)
			}
		})
	}
	// Clear any end-of-script outages so parked flows can drain and the
	// simulator runs to quiescence.
	sim.At(4.0, func() {
		for l := 0; l < c.NumLinks(); l++ {
			n.SetLinkCapacityFactor(topology.LinkID(l), 1)
		}
	})
	sim.Run()
	for l := 0; l < c.NumLinks(); l++ {
		log.links = append(log.links, math.Float64bits(n.LinkBytes(topology.LinkID(l))))
	}
	if !pooling {
		log.sent = make([]float64, c.NumLinks())
		for _, f := range handles {
			for _, l := range f.path {
				log.sent[l] += f.Bytes - f.Remaining()
			}
		}
	}
	log.cross = math.Float64bits(n.CrossRackBytes())
	log.total = math.Float64bits(n.TotalBytes())
	log.served = n.FlowsServed()
	return log
}

// coldEvery is IncrementalMaxMin with its table emptied before every
// k-th call (never for k = 0), so a script replays across cold restarts
// at arbitrary points of the flow history.
type coldEvery struct {
	IncrementalMaxMin
	k, calls int
}

func (p *coldEvery) Allocate(flows []*Flow, caps []float64, scratch []float64) {
	p.calls++
	if p.k > 0 && p.calls%p.k == 0 {
		p.caps = nil
	}
	p.IncrementalMaxMin.Allocate(flows, caps, scratch)
}

// newFullPass returns the allocator with its table emptied before every
// call, so each Allocate rebuilds every group and component from the
// flow list and fills them all: the full pass.
func newFullPass() *coldEvery { return &coldEvery{k: 1} }

// TestGroupedBitIdenticalToMaxMinFair is the differential gate for the
// full grouped pass: across seeded randomized scripts mixing in-rack,
// cross-rack, loopback and rack-aggregated flows with mid-transfer cancels
// and link faults, every allocation's rates, every completion time and all
// byte accounting, every link's byte count included, must match the
// MaxMinFair oracle bit for bit.
func TestGroupedBitIdenticalToMaxMinFair(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	for seed := int64(1); seed <= 8; seed++ {
		ops := genScript(rand.New(rand.NewSource(seed)), c, 300)
		ref := replay(c, ops, MaxMinFair{})
		got := replay(c, ops, newFullPass())
		if d := diffLogs(ref, got); d != "" {
			t.Fatalf("seed %d: grouped diverges from maxmin: %s", seed, d)
		}
	}
}

// TestLinkBytesMatchFlowBytes checks the per-link byte counts the
// recompute charges interval by interval against what each flow finally
// sent: every link's LinkBytes must equal, up to rounding, the sum of
// Bytes − Remaining over the flows crossing it, canceled flows included.
func TestLinkBytesMatchFlowBytes(t *testing.T) {
	c := topology.MustNew(topology.Config{
		Racks:            4,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
	for seed := int64(1); seed <= 4; seed++ {
		log := replay(c, genScript(rand.New(rand.NewSource(seed)), c, 300), NewIncrementalMaxMin())
		busy := 0
		for l, want := range log.sent {
			got := math.Float64frombits(log.links[l])
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("seed %d: link %d carried %v bytes, its flows sent %v", seed, l, got, want)
			}
			if want > 0 {
				busy++
			}
		}
		if busy == 0 {
			t.Fatalf("seed %d: no link carried any bytes: test is vacuous", seed)
		}
	}
}

// TestGroupedBatchedRecompute verifies the same-instant batching contract: a
// burst of N flow starts triggers exactly one allocation, and N simultaneous
// completions are absorbed without any further allocation.
func TestGroupedBatchedRecompute(t *testing.T) {
	sim, n := newNet(t, NewIncrementalMaxMin())
	allocs := 0
	n.OnAllocate = func() { allocs++ }
	// 4 equal flows per destination machine in rack 1, all from rack 0's
	// uplink: identical paths within each destination, identical rates, so
	// every flow completes at the same instant.
	for dst := 4; dst < 8; dst++ {
		for k := 0; k < 4; k++ {
			n.Start(k%4, dst, 1*gbps, 0, 0, nil)
		}
	}
	sim.Run()
	if allocs != 1 {
		t.Fatalf("burst of 16 same-instant starts triggered %d allocations, want exactly 1", allocs)
	}
}

// TestGroupedRequiresInternedFlows documents the pathID contract: flows
// constructed outside Network.StartPath cannot be grouped and must panic
// loudly rather than silently collapse into one class.
func TestGroupedRequiresInternedFlows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IncrementalMaxMin accepted a flow with pathID 0")
		}
	}()
	f := &Flow{ID: 1, Bytes: 1, remaining: 1, path: []topology.LinkID{0, 1}}
	caps := []float64{gbps, gbps}
	NewIncrementalMaxMin().Allocate([]*Flow{f}, caps, make([]float64, 2))
}

// TestIncrementalRequiresIncreasingIDs documents the flow-order contract:
// the merge finds started and ended flows by walking two ID-ordered
// lists, so a list out of order, a repeated ID or an ID that changed its
// path must panic rather than silently miscount a group.
func TestIncrementalRequiresIncreasingIDs(t *testing.T) {
	caps := []float64{gbps, gbps}
	p0, p1 := []topology.LinkID{0}, []topology.LinkID{1}
	for _, tc := range []struct {
		name  string
		calls [][]*Flow // every call but the last must be accepted
	}{
		{"decreasing", [][]*Flow{{incFlow(2, 1, p0), incFlow(1, 2, p1)}}},
		{"repeated", [][]*Flow{{incFlow(1, 1, p0), incFlow(1, 2, p1)}}},
		{"path changed", [][]*Flow{{incFlow(1, 1, p0)}, {incFlow(1, 2, p1)}}},
	} {
		inc := NewIncrementalMaxMin()
		last := len(tc.calls) - 1
		for _, flows := range tc.calls[:last] {
			inc.Allocate(flows, caps, make([]float64, 2))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: IncrementalMaxMin accepted the flows", tc.name)
				}
			}()
			inc.Allocate(tc.calls[last], caps, make([]float64, 2))
		}()
	}
}

// TestGroupedAllocateSteadyStateZeroAlloc pins the zero-alloc contract for
// the full grouped pass: once scratch is warm, recomputes allocate nothing.
func TestGroupedAllocateSteadyStateZeroAlloc(t *testing.T) {
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
	// Fire the initial recompute so n.flows is populated and rates exist.
	for sim.Step() && n.ActiveFlows() == 0 {
	}
	g := newFullPass()
	g.Allocate(n.flows, n.caps, n.scratch) // warm the scratch
	avg := testing.AllocsPerRun(100, func() {
		g.Allocate(n.flows, n.caps, n.scratch)
	})
	if avg != 0 {
		t.Fatalf("steady-state Allocate performs %.1f allocations per call, want 0", avg)
	}
}

// TestGroupedBottleneckTieLowestLinkID pins the fill's tie-break without
// any link ordering: the first path seen crosses link 5 before link 1,
// both links reach the same fill level, and the rates must still match
// the per-flow oracle, which scans the link table in id order and so
// saturates link 1 first. The capacities leave rounding dust on the link
// charged second, so the pick is visible: flows on link 1 alone freeze
// one ulp below flows on link 5 alone.
func TestGroupedBottleneckTieLowestLinkID(t *testing.T) {
	mk := func() []*Flow {
		flows := []*Flow{{ID: 1, path: []topology.LinkID{5, 1}, pathID: 1}}
		for i := 0; i < 4; i++ {
			flows = append(flows,
				&Flow{ID: int64(2 + 2*i), path: []topology.LinkID{5}, pathID: 2},
				&Flow{ID: int64(3 + 2*i), path: []topology.LinkID{1}, pathID: 3})
		}
		return flows
	}
	caps := []float64{0, 1.7, 0, 0, 0, 1.7}
	ref, got := mk(), mk()
	MaxMinFair{}.Allocate(ref, caps, make([]float64, len(caps)))
	NewIncrementalMaxMin().Allocate(got, caps, make([]float64, len(caps)))
	for i := range ref {
		if math.Float64bits(ref[i].rate) != math.Float64bits(got[i].rate) {
			t.Fatalf("flow %d (path %v): grouped rate %v, oracle %v", ref[i].ID, ref[i].path, got[i].rate, ref[i].rate)
		}
	}
	if onLink1, onLink5 := ref[2].rate, ref[1].rate; !(onLink1 < onLink5) {
		t.Fatalf("oracle rates %v on link 1, %v on link 5: the tie leaves no trace, test is vacuous", onLink1, onLink5)
	}
}
