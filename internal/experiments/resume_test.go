package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"corral/internal/invariants"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/snapshot"
	"corral/internal/workload"
)

// failureArtifact is where a failing equivalence point's snapshot is
// persisted so CI can upload it for offline debugging (corralsnap inspect).
const failureArtifact = "resume-failure.snap.json"

// resumeSweep runs the equivalence check for one seed at a given worker
// count, failing the test on infrastructure errors and persisting the
// first mismatching point's snapshot as an artifact.
func resumeSweep(t *testing.T, seed int64, workers int) (uint64, []resumePoint) {
	t.Helper()
	pool.SetWorkers(workers)
	defer pool.SetWorkers(0)
	events, points, err := runResume(SizeS, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.snapshot != nil {
			if werr := os.WriteFile(failureArtifact, pt.snapshot, 0o644); werr == nil {
				t.Logf("wrote mismatching snapshot to %s", failureArtifact)
			}
			break
		}
	}
	return events, points
}

// TestResumeDeterminism is the crash-resume equivalence gate on the seeds
// the registry checks: for each and three random mid-flight snapshot
// points, a run restored from serialized snapshot bytes must finish with
// a bit-identical Result and trace export, and the points (event index,
// simulated time, verdict) must not depend on the sweep worker count.
func TestResumeDeterminism(t *testing.T) {
	for _, seed := range resumeSeeds {
		var serial []resumePoint
		for _, workers := range []int{1, 8} {
			events, points := resumeSweep(t, seed, workers)
			var ms []string
			for _, pt := range points {
				if pt.detail != "" {
					ms = append(ms, fmt.Sprintf("seed %d event %d (t=%.3f): %s",
						seed, pt.eventIndex, pt.simTime, pt.detail))
				}
			}
			if len(ms) != 0 {
				t.Fatalf("seed %d workers %d: %d equivalence mismatches:\n%s",
					seed, workers, len(ms), strings.Join(ms, "\n"))
			}
			if len(points) != resumePoints || events < 10 {
				t.Fatalf("seed %d workers %d: %d points over %d events", seed, workers, len(points), events)
			}
			if serial == nil {
				serial = points
			} else if !reflect.DeepEqual(points, serial) {
				t.Fatalf("seed %d: resume points differ between 1 and %d workers", seed, workers)
			}
		}
	}
}

// TestResumeSeedsActuallyDiffer guards the gate against vacuity: if two
// seeds produced identical baselines, the equivalence sweep could pass on
// a constant-output bug.
func TestResumeSeedsActuallyDiffer(t *testing.T) {
	prof := profileFor(SizeS)
	var traces [][]byte
	for _, seed := range []int64{1, 42} {
		opts, jobs, err := resumeScenario(prof, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, tr, err := tracedBaseline(opts, jobs, "seed-diff")
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	if string(traces[0]) == string(traces[1]) {
		t.Fatal("seeds 1 and 42 produced identical baseline traces; equivalence checks are vacuous")
	}
}

// --- canned snapshot corpus -------------------------------------------------

var corpusSeeds = []int64{11, 23, 37}

func corpusDir() string { return filepath.Join("testdata", "snapshots") }

// TestFuzzSnapshotCorpus replays the canned mid-flight snapshots under
// testdata/snapshots: each must decode, resume cleanly under the invariant
// monitor, and finish with exactly the committed Result. The corpus is a
// cross-build compatibility gate — it catches schema or semantics drift
// that same-build round-trip tests cannot. Regenerate deliberately with
// UPDATE_SNAPSHOT_CORPUS=1 (and bump snapshot.Version if the schema
// changed). Name matches the `make fuzz` test pattern.
func TestFuzzSnapshotCorpus(t *testing.T) {
	if os.Getenv("UPDATE_SNAPSHOT_CORPUS") != "" {
		regenerateCorpus(t)
		return
	}
	prof := profileFor(SizeS)
	for _, seed := range corpusSeeds {
		name := fmt.Sprintf("fuzz-seed%d", seed)
		raw, err := os.ReadFile(filepath.Join(corpusDir(), name+".snap.json"))
		if err != nil {
			t.Fatalf("%v (regenerate with UPDATE_SNAPSHOT_CORPUS=1 go test ./internal/experiments/ -run TestFuzzSnapshotCorpus)", err)
		}
		wantRes, err := os.ReadFile(filepath.Join(corpusDir(), name+".result.json"))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Decode(raw)
		if err != nil {
			t.Fatalf("%s: corpus snapshot does not decode: %v", name, err)
		}
		mon := invariants.NewMonitor(prof.topo.Machines(), prof.topo.SlotsPerMachine)
		res, err := runtime.Resume(snap, runtime.ResumeOptions{Probe: mon})
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		if n := mon.ViolationCount(); n != 0 {
			t.Fatalf("%s: resumed corpus run raised %d violations: %v", name, n, mon.Violations())
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wantRes) {
			t.Fatalf("%s: resumed Result drifted from committed outcome\ngot:  %s\nwant: %s", name, got, wantRes)
		}
	}
}

func regenerateCorpus(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll(corpusDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	prof := profileFor(SizeS)
	for _, seed := range corpusSeeds {
		name := fmt.Sprintf("fuzz-seed%d", seed)
		opts, jobs, err := resumeScenario(prof, seed)
		if err != nil {
			t.Fatal(err)
		}
		base, err := runtime.Run(opts, workload.Clone(jobs))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := runtime.CaptureAt(opts, workload.Clone(jobs),
			runtime.CheckpointTarget{EventIndex: base.Events / 2})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := snapshot.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runtime.Resume(snap, runtime.ResumeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("%s: resume != baseline while regenerating corpus", name)
		}
		resRaw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(corpusDir(), name+".snap.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(corpusDir(), name+".result.json"), resRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d snapshot bytes, captured at event %d)", name, len(raw), snap.Meta.EventIndex)
	}
}
