package netsim

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"corral/internal/des"
	"corral/internal/topology"
)

// pathKey is the interning key the Network used before its hash table: 4
// little-endian bytes per link, the encoding PathIntern still exports.
func pathKey(path []topology.LinkID) string {
	var b []byte
	for _, l := range path {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}

// TestInternPathMatchesMap interns random paths, short and long (past
// an arena chunk), through enough table growth to rehash several times,
// into one reused buffer. Ids must follow first sight as a map keyed by
// the encoded path assigns them, every canonical path must equal its
// links with capacity capped at its length, and CaptureState must export
// the table the map would.
func TestInternPathMatchesMap(t *testing.T) {
	n := New(des.New(), testCluster(t), MaxMinFair{})
	oracle := map[string]int32{}
	var want []PathIntern
	r := rand.New(rand.NewSource(5))
	buf := make([]topology.LinkID, 0, 3*pathArenaChunk)
	for i := 0; i < 20000; i++ {
		k := 1 + r.Intn(4)
		if i%997 == 0 {
			k = pathArenaChunk + r.Intn(2*pathArenaChunk)
		}
		buf = buf[:0]
		for j := 0; j < k; j++ {
			buf = append(buf, topology.LinkID(r.Intn(40)))
		}
		id := n.internPath(buf)
		wantID, seen := oracle[pathKey(buf)]
		if !seen {
			wantID = int32(len(oracle) + 1)
			oracle[pathKey(buf)] = wantID
			want = append(want, PathIntern{Key: []byte(pathKey(buf)), ID: wantID})
		}
		if id != wantID {
			t.Fatalf("path %d (%d links): id %d, want %d", i, k, id, wantID)
		}
		if p := n.pathsByID[id]; !slices.Equal(p, buf) || cap(p) != len(p) {
			t.Fatalf("path %d: canonical %v (cap %d), want %v", i, p, cap(p), buf)
		}
		for j := range buf {
			buf[j] = -1 // the caller's buffer is not retained
		}
		if slices.Contains(n.pathsByID[id], -1) {
			t.Fatalf("path %d: canonical path aliases the caller's buffer", i)
		}
	}
	if n.NumPaths() != len(oracle) || len(n.pathTable) < 2*len(oracle) {
		t.Fatalf("%d paths in a %d-slot table, oracle %d", n.NumPaths(), len(n.pathTable), len(oracle))
	}
	if len(oracle) < 1000 {
		t.Fatalf("only %d distinct paths: the table barely grew", len(oracle))
	}
	if got := n.CaptureState().Paths; !reflect.DeepEqual(got, want) {
		t.Fatal("CaptureState paths differ from the map-keyed table")
	}
}

// TestInternPathZeroAlloc: a hit allocates nothing, and misses allocate
// less than one object each on average (table and arena growth only),
// with bounded bytes per path.
func TestInternPathZeroAlloc(t *testing.T) {
	n := New(des.New(), testCluster(t), MaxMinFair{})
	hit := []topology.LinkID{3, 17, 9}
	n.internPath(hit)
	if allocs := testing.AllocsPerRun(100, func() { n.internPath(hit) }); allocs != 0 {
		t.Fatalf("interned-path hit allocates %v objects, want 0", allocs)
	}

	const misses = 50000
	next := 0
	miss := []topology.LinkID{0, 0, 0}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(misses, func() {
		next++
		miss[0], miss[1], miss[2] = topology.LinkID(next), topology.LinkID(next>>8), topology.LinkID(next>>16)
		n.internPath(miss)
	})
	runtime.ReadMemStats(&after)
	if allocs != 0 {
		t.Fatalf("interned-path miss allocates %v objects on average, want under 1", allocs)
	}
	// Per path: 3 links in the arena (24 B), a canonical slice header and
	// table slots, each at most doubled by growth: ~110 B.
	if b := float64(after.TotalAlloc-before.TotalAlloc) / (misses + 1); b > 160 {
		t.Fatalf("interned-path miss allocates %.0f B on average, want at most 160", b)
	}
}
