package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"corral/internal/topology"
)

// scanVisit is the heartbeat visit as dispatch ran it before
// visitEligible: a walk over all of machineOrder that skips machines in
// racks no runnable job may use (unless anyRack) and machines that cannot
// take a slot. It is the oracle visitEligible must match visit for visit.
func scanVisit(rt *runtime, anyRack bool, visit func(m int) bool) bool {
	assigned := false
	for _, m := range rt.machineOrder {
		if !anyRack && !rt.rackDemand[rt.cluster.RackOf(int(m))] ||
			rt.freeSlots[m] == 0 || rt.dead[m] || rt.blacklisted[m] {
			continue
		}
		if visit(int(m)) {
			assigned = true
		}
	}
	return assigned
}

// byteStream hands out a fuzz input one byte at a time, then zeros.
type byteStream struct {
	b []byte
	i int
}

func (s *byteStream) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

func (s *byteStream) done() bool { return s.i >= len(s.b) }

// visitSide is one runtime under test: the machine state a visit reads,
// and the visits it made in the current pass.
type visitSide struct {
	rt      *runtime
	visited []int
}

func newVisitSide(cl *topology.Cluster, src *countingSource) *visitSide {
	n := cl.Config.Machines()
	return &visitSide{rt: &runtime{
		cluster:      cl,
		rngSrc:       src,
		machineOrder: identityOrder(n),
		machineAt:    identityOrder(n),
		freeSlots:    make([]int, n),
		dead:         make([]bool, n),
		blacklisted:  make([]bool, n),
		rackDemand:   make([]bool, cl.Config.Racks),
	}}
}

// visitStats counts what a differential run exercised.
type visitStats struct {
	constrained, anyRack int // visits made by each path
	revoked              int // constrained-path candidates a visit made ineligible
}

// visitFunc returns the pass's visit callback for side s. Visit k applies
// effects[k%len(effects)]: its low two bits take no slot, one slot or all
// of them on the visited machine (a visit that takes none declines), and
// bits 3-4 may zero the free slots of, kill or blacklist machine
// m+1+(e>>5) — the kinds of change a launch may make to other machines:
// none of them makes a machine eligible. revoked counts changes that hit
// a candidate the constrained path has collected but not yet visited.
func (s *visitSide) visitFunc(effects []byte, anyRack bool, stats *visitStats) func(m int) bool {
	rt := s.rt
	n := len(rt.freeSlots)
	return func(m int) bool {
		e := effects[len(s.visited)%len(effects)]
		s.visited = append(s.visited, m)
		taken := false
		switch e & 3 {
		case 1:
			rt.freeSlots[m]--
			taken = true
		case 2, 3:
			rt.freeSlots[m] = 0
			taken = true
		}
		x := (m + 1 + int(e>>5)) % n
		if stats != nil && (e>>3)&3 != 0 && rt.freeSlots[x] > 0 && !rt.dead[x] && !rt.blacklisted[x] &&
			!anyRack && rt.rackDemand[rt.cluster.RackOf(x)] && rt.machineAt[x] > rt.machineAt[m] {
			stats.revoked++
		}
		switch (e >> 3) & 3 {
		case 1:
			rt.freeSlots[x] = 0
		case 2:
			rt.dead[x] = true
		case 3:
			rt.blacklisted[x] = true
		}
		return taken
	}
}

// checkVisitMatchesScan runs dispatches on a racks×perRack cluster until
// data runs out (at most 12): each sets every machine's free slots, dead
// and blacklisted flags and a list of runnable jobs' allowed racks (a nil
// list is an unconstrained job) from data, then makes one to three
// heartbeat passes. In every pass shuffleMachineOrder and visitEligible
// must visit the machines randIntnShuffle and scanVisit visit, in the
// same order, with the same draws. It returns what the passes exercised.
func checkVisitMatchesScan(t testing.TB, seed int64, racks, perRack int, data []byte) visitStats {
	t.Helper()
	cl := topology.MustNew(topology.Config{
		Racks: racks, MachinesPerRack: perRack, SlotsPerMachine: 2, NICBandwidth: 10 * gbps, Oversubscription: 5,
	})
	n := cl.Config.Machines()
	got := newVisitSide(cl, newCountingSource(seed))
	ref := newRefSource(seed)
	want := newVisitSide(cl, nil)
	oracle := rand.New(ref)
	in := &byteStream{b: data}
	var stats visitStats
	for d := 0; d < 12 && !in.done(); d++ {
		busy := in.next()
		for m := 0; m < n; m++ {
			b := in.next()
			free := 0
			if b >= busy {
				free = 1 + int(b&1)
			}
			for _, s := range []*visitSide{got, want} {
				s.rt.freeSlots[m], s.rt.dead[m], s.rt.blacklisted[m] = free, b%7 == 3, b%11 == 5
			}
		}

		got.rt.clearDemand()
		clear(want.rt.rackDemand)
		anyRack := false
		jobs := int(in.next() % 5)
		for j := 0; j < jobs; j++ {
			b := in.next()
			if b%4 == 0 {
				anyRack = true
				continue
			}
			allowed := make([]int, 1+int(b>>2)%3)
			for i := range allowed {
				allowed[i] = int(in.next()) % racks
			}
			if !anyRack {
				got.rt.markDemand(allowed)
				for _, r := range allowed {
					want.rt.rackDemand[r] = true
				}
			}
		}
		if !slices.Equal(got.rt.rackDemand, want.rt.rackDemand) {
			t.Fatalf("dispatch %d: rack marks %v, want %v", d, got.rt.rackDemand, want.rt.rackDemand)
		}

		passes := 1 + int(in.next()%3)
		for p := 0; p < passes; p++ {
			what := fmt.Sprintf("dispatch %d pass %d (anyRack %v)", d, p, anyRack)
			got.rt.shuffleMachineOrder()
			randIntnShuffle(oracle, want.rt.machineOrder)
			if got.rt.rngSrc.draws != ref.draws {
				t.Fatalf("%s: %d draws, the oracle took %d", what, got.rt.rngSrc.draws, ref.draws)
			}
			if !slices.Equal(got.rt.machineOrder, want.rt.machineOrder) {
				t.Fatalf("%s: heartbeat order differs from the oracle's", what)
			}
			checkPositionIndex(t, got.rt, what)
			if jobs == 0 {
				break // dispatch stops after the shuffle with no runnable job
			}
			effects := make([]byte, 1+in.next()%8)
			for i := range effects {
				effects[i] = in.next()
			}
			got.visited, want.visited = got.visited[:0], want.visited[:0]
			gotAssigned := got.rt.visitEligible(anyRack, got.visitFunc(effects, anyRack, &stats))
			wantAssigned := scanVisit(want.rt, anyRack, want.visitFunc(effects, anyRack, nil))
			if !slices.Equal(got.visited, want.visited) || gotAssigned != wantAssigned {
				t.Fatalf("%s: visited %v (assigned %v), the full scan visits %v (assigned %v)",
					what, got.visited, gotAssigned, want.visited, wantAssigned)
			}
			if anyRack {
				stats.anyRack += len(got.visited)
			} else {
				stats.constrained += len(got.visited)
			}
		}
	}
	return stats
}

// randomVisitData is a random input for checkVisitMatchesScan: enough
// bytes for dispatches dispatches of an n-machine cluster.
func randomVisitData(r *rand.Rand, n, dispatches int) []byte {
	data := make([]byte, dispatches*(n+48))
	r.Read(data)
	return data
}

func TestDispatchVisitMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var total visitStats
	for _, shape := range []struct{ racks, perRack int }{
		{1, 1}, {1, 6}, {2, 3}, {5, 4}, {7, 8}, {16, 16}, {250, 40},
	} {
		seeds := 40
		if shape.racks*shape.perRack > 1000 {
			seeds = 3
		}
		for s := 0; s < seeds; s++ {
			seed := r.Int63()
			data := randomVisitData(r, shape.racks*shape.perRack, 12)
			st := checkVisitMatchesScan(t, seed, shape.racks, shape.perRack, data)
			total.constrained += st.constrained
			total.anyRack += st.anyRack
			total.revoked += st.revoked
		}
	}
	// Anti-vacuity: both visit paths ran, and visits took collected
	// candidates the constrained path had yet to reach out of the eligible
	// set, so the per-machine re-check decided visits.
	if total.constrained < 1000 || total.anyRack < 1000 || total.revoked < 100 {
		t.Fatalf("too little exercised: %d constrained visits, %d anyRack visits, %d revoked candidates",
			total.constrained, total.anyRack, total.revoked)
	}
}

// FuzzDispatchVisitMatchesScan runs checkVisitMatchesScan on clusters of
// up to 16×16 machines, every choice taken from the fuzz input.
func FuzzDispatchVisitMatchesScan(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	f.Add(int64(1), uint8(0), uint8(0), []byte{})
	f.Add(int64(2), uint8(3), uint8(4), randomVisitData(r, 12, 6))
	f.Add(int64(-7), uint8(15), uint8(15), randomVisitData(r, 256, 12))
	f.Fuzz(func(t *testing.T, seed int64, racks, perRack uint8, data []byte) {
		checkVisitMatchesScan(t, seed, 1+int(racks%16), 1+int(perRack%16), data)
	})
}
