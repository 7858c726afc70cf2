package snapshot_test

import (
	"reflect"
	"testing"

	"corral/internal/snapshot"
)

// TestDiffStatesFastPath: DiffStates answers from one reflect.DeepEqual
// when the states match, and otherwise reports exactly what the plain
// reflective walk reports. Each case mutates one leaf of a decoded copy
// of a captured State, in each of its four sections.
func TestDiffStatesFastPath(t *testing.T) {
	snap := goldenSnapshot(t)
	if snap.State.Net == nil || snap.State.DFS == nil || len(snap.State.Runtime.Jobs) == 0 {
		t.Fatal("golden state has no network, DFS or job section to mutate")
	}
	if snap.State.Runtime.AdmissionQueue != nil || snap.State.Net.Flows == nil || len(snap.State.Net.Flows) != 0 {
		t.Fatal("golden state no longer has a nil AdmissionQueue and an empty, non-nil Net.Flows")
	}
	raw, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(t *testing.T) *snapshot.State {
		t.Helper()
		dec, err := snapshot.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		return &dec.State
	}
	// The restore audit compares a live export against a decoded one; the
	// fast path must hold for that pair, or it never fires in practice.
	if !reflect.DeepEqual(&snap.State, fresh(t)) {
		t.Fatalf("captured State is not DeepEqual to its decoded copy; walk reports %v",
			snapshot.WalkStates(&snap.State, fresh(t)))
	}
	if d := snapshot.DiffStates(&snap.State, fresh(t)); d != nil {
		t.Fatalf("DiffStates on equal states = %v, want nil", d)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*snapshot.State)
		want   bool // a diff must be reported
	}{
		{"DES.Now", func(s *snapshot.State) { s.DES.Now += 1 }, true},
		{"Runtime.Jobs[0].TaskSeconds", func(s *snapshot.State) { s.Runtime.Jobs[0].TaskSeconds += 1 }, true},
		{"Net.TotalBytes", func(s *snapshot.State) { s.Net.TotalBytes += 1 }, true},
		{"DFS.MachineBytes[0]", func(s *snapshot.State) { s.DFS.MachineBytes[0] += 1 }, true},
		{"nil to empty AdmissionQueue", func(s *snapshot.State) { s.Runtime.AdmissionQueue = []int{} }, false},
		{"empty to nil Net.Flows", func(s *snapshot.State) { s.Net.Flows = nil }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mutant := fresh(t)
			tc.mutate(mutant)
			if reflect.DeepEqual(&snap.State, mutant) {
				t.Fatal("mutation left the states DeepEqual; the walk is not exercised")
			}
			got := snapshot.DiffStates(&snap.State, mutant)
			walk := snapshot.WalkStates(&snap.State, mutant)
			if !reflect.DeepEqual(got, walk) {
				t.Fatalf("DiffStates = %q, walk = %q", got, walk)
			}
			if tc.want != (len(got) > 0) {
				t.Fatalf("DiffStates = %q, want a diff: %v", got, tc.want)
			}
		})
	}
}
