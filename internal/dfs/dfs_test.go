package dfs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"corral/internal/topology"
)

const gbps = 1e9 / 8

func testCluster() *topology.Cluster {
	return topology.MustNew(topology.Config{
		Racks:            7,
		MachinesPerRack:  30,
		SlotsPerMachine:  8,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	})
}

func newStore(seed int64) *Store {
	return New(testCluster(), 0, rand.New(rand.NewSource(seed)))
}

func TestCreateBasics(t *testing.T) {
	s := newStore(1)
	size := 3.5 * DefaultBlockSize
	f, err := s.Create("input", size, DefaultPlacement{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	total := 0.0
	for i, b := range f.Blocks {
		total += b.Size
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", i, len(b.Replicas))
		}
	}
	if math.Abs(total-size) > 1 {
		t.Fatalf("sum of block sizes = %g, want %g", total, size)
	}
	// Last block is the remainder.
	if got := f.Blocks[3].Size; math.Abs(got-0.5*DefaultBlockSize) > 1 {
		t.Fatalf("last block size = %g, want half block", got)
	}
	if got, ok := s.Open("input"); !ok || got != f {
		t.Fatal("Open did not return the created file")
	}
	if got, ok := s.Open("absent"); ok || got != nil {
		t.Fatal("Open returned a file for an absent name")
	}
}

func TestCreateErrors(t *testing.T) {
	s := newStore(1)
	if _, err := s.Create("f", 100, DefaultPlacement{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("f", 100, DefaultPlacement{}); err == nil {
		t.Fatal("duplicate create did not error")
	}
	if _, err := s.Create("g", -1, DefaultPlacement{}); err == nil {
		t.Fatal("negative size did not error")
	}
}

func TestZeroByteFile(t *testing.T) {
	s := newStore(1)
	f, err := s.Create("empty", 0, DefaultPlacement{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 0 {
		t.Fatalf("empty file has %d blocks, want 0", len(f.Blocks))
	}
}

func TestDefaultPlacementFaultTolerance(t *testing.T) {
	// Every chunk must span exactly two racks: replicas {1 on rack A, 2 on
	// rack B} per the paper's §2 policy (as arranged by assignReplicas).
	s := newStore(7)
	cl := testCluster()
	f, err := s.Create("big", 50*DefaultBlockSize, DefaultPlacement{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Blocks {
		racks := map[int]int{}
		for _, m := range b.Replicas {
			racks[cl.RackOf(m)]++
		}
		if len(racks) != 2 {
			t.Fatalf("block %d spans %d racks, want 2", i, len(racks))
		}
		// No two replicas on the same machine.
		seen := map[int]bool{}
		for _, m := range b.Replicas {
			if seen[m] {
				t.Fatalf("block %d has duplicate replica machine %d", i, m)
			}
			seen[m] = true
		}
	}
}

func TestCorralPlacementTargetsRacks(t *testing.T) {
	s := newStore(3)
	cl := testCluster()
	target := []int{2, 5}
	f, err := s.Create("planned", 40*DefaultBlockSize, CorralPlacement{Racks: target})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Blocks {
		primary := cl.RackOf(b.Replicas[0])
		if primary != 2 && primary != 5 {
			t.Fatalf("block %d primary replica on rack %d, want one of %v", i, primary, target)
		}
		// Remaining replicas on a single different rack.
		other := cl.RackOf(b.Replicas[1])
		if other == primary {
			t.Fatalf("block %d: remote replicas on the primary rack", i)
		}
		if cl.RackOf(b.Replicas[2]) != other {
			t.Fatalf("block %d: third replica not co-racked with second", i)
		}
	}
}

func TestCorralPlacementEmptyRacksPanics(t *testing.T) {
	s := newStore(3)
	defer func() {
		if recover() == nil {
			t.Fatal("empty rack set did not panic")
		}
	}()
	s.Create("x", 100, CorralPlacement{})
}

func TestRackCoVImprovesWithLeastLoaded(t *testing.T) {
	// Corral placement (least-loaded remote rack) should yield lower CoV
	// than default random placement, mirroring §6.2 (0.004 vs 0.014).
	corral := newStore(11)
	def := newStore(11)
	for i := 0; i < 60; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		// Rotate target racks like a planner output would.
		corral.Create(name, 4*DefaultBlockSize, CorralPlacement{Racks: []int{i % 7}})
		def.Create(name, 4*DefaultBlockSize, DefaultPlacement{})
	}
	if corral.RackCoV() > def.RackCoV() {
		t.Fatalf("Corral CoV %g > default CoV %g", corral.RackCoV(), def.RackCoV())
	}
	if corral.RackCoV() > 0.05 {
		t.Fatalf("Corral CoV %g, want near 0", corral.RackCoV())
	}
}

func TestTotalBytesAccounting(t *testing.T) {
	s := newStore(1)
	s.Create("f", 2*DefaultBlockSize, DefaultPlacement{})
	want := 3 * 2 * DefaultBlockSize // 3 replicas
	if got := s.TotalBytes(); math.Abs(got-float64(want)) > 1 {
		t.Fatalf("TotalBytes = %g, want %g", got, float64(want))
	}
}

func TestFixedPlacement(t *testing.T) {
	s := newStore(1)
	f, err := s.Create("pinned", 100, FixedPlacement{Machines: []int{3, 33, 63}})
	if err != nil {
		t.Fatal(err)
	}
	got := f.Blocks[0].Replicas
	if got[0] != 3 || got[1] != 33 || got[2] != 63 {
		t.Fatalf("replicas = %v, want [3 33 63]", got)
	}
}

func TestCorruptionRepairLifecycle(t *testing.T) {
	s := newStore(5)
	f, err := s.Create("data", 2*DefaultBlockSize, DefaultPlacement{})
	if err != nil {
		t.Fatal(err)
	}
	b := &f.Blocks[0]
	victim := b.Replicas[1]
	if !s.CorruptReplica(b, victim) {
		t.Fatal("CorruptReplica found nothing to corrupt")
	}
	if s.CorruptReplica(b, victim) {
		t.Fatal("second corruption of the same replica should find no clean copy")
	}
	if !s.ReplicaCorrupt(b, victim) {
		t.Fatal("ReplicaCorrupt did not report the corrupted replica")
	}
	if s.ReplicaCorrupt(b, b.Replicas[0]) {
		t.Fatal("clean replica reported corrupt")
	}
	if s.CorruptReplicas() != 1 {
		t.Fatalf("CorruptReplicas = %d, want 1", s.CorruptReplicas())
	}

	reps := s.PlanRepairs(b, nil)
	if len(reps) != 1 {
		t.Fatalf("planned %d repairs for one corrupt replica, want 1", len(reps))
	}
	r := reps[0]
	if b.Replicas[r.Slot] != victim {
		t.Fatalf("repair targets slot %d (machine %d), want the corrupt machine %d", r.Slot, b.Replicas[r.Slot], victim)
	}
	if s.ReplicaCorrupt(b, r.Src) || !s.Alive(r.Src) {
		t.Fatalf("repair source %d is not a live clean replica", r.Src)
	}
	for _, m := range b.Replicas {
		if r.Dst == m {
			t.Fatalf("repair destination %d already holds a replica (%v)", r.Dst, b.Replicas)
		}
	}
	s.CommitRepair(r)
	if s.CorruptReplicas() != 0 {
		t.Fatalf("CorruptReplicas = %d after repair, want 0", s.CorruptReplicas())
	}
	if s.ReplicaCorrupt(b, r.Dst) {
		t.Fatal("repaired replica still marked corrupt")
	}
	if err := s.AuditAccounting(); err != nil {
		t.Fatalf("accounting diverged after corruption repair: %v", err)
	}
}

func TestPlanRepairsNeedsCleanSource(t *testing.T) {
	s := newStore(6)
	f, err := s.Create("doomed", DefaultBlockSize, DefaultPlacement{})
	if err != nil {
		t.Fatal(err)
	}
	b := &f.Blocks[0]
	for _, m := range append([]int(nil), b.Replicas...) {
		s.CorruptReplica(b, m)
	}
	if reps := s.PlanRepairs(b, nil); reps != nil {
		t.Fatalf("planned repairs with no clean source: %v", reps)
	}
}

func TestAuditAccounting(t *testing.T) {
	s := newStore(9)
	for i := 0; i < 5; i++ {
		name := string(rune('a' + i))
		if _, err := s.Create(name, 3*DefaultBlockSize, DefaultPlacement{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AuditAccounting(); err != nil {
		t.Fatalf("clean store failed audit: %v", err)
	}
	// Tamper with the incremental accounting: the audit must notice.
	s.view.machineBytes[0] += 12345
	if err := s.AuditAccounting(); err == nil {
		t.Fatal("audit missed tampered machine accounting")
	}
}

// Property: any sequence of default-policy creates keeps replica invariants:
// 3 distinct machines, exactly 2 racks, accounting consistent.
func TestQuickPlacementInvariants(t *testing.T) {
	cl := testCluster()
	f := func(seed int64, sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		s := New(cl, 0, rand.New(rand.NewSource(seed)))
		expectTotal := 0.0
		for i, sz := range sizes {
			size := float64(sz) * 1e7
			name := "f" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
			file, err := s.Create(name, size, DefaultPlacement{})
			if err != nil {
				return false
			}
			for _, b := range file.Blocks {
				expectTotal += 3 * b.Size
				if len(b.Replicas) != 3 {
					return false
				}
				racks := map[int]bool{}
				machines := map[int]bool{}
				for _, m := range b.Replicas {
					if m < 0 || m >= cl.Config.Machines() {
						return false
					}
					racks[cl.RackOf(m)] = true
					if machines[m] {
						return false
					}
					machines[m] = true
				}
				if len(racks) != 2 {
					return false
				}
			}
		}
		return math.Abs(s.TotalBytes()-expectTotal) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
