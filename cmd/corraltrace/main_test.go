package main

// Golden test for the summarizer. The JSONL fixture is generated from two
// pinned deterministic runs — one exercising the planner-budget fallback
// chain plus replan-storm suppression, one exercising admission control —
// so the summary covers the overload-degradation block end to end.
// Regenerate both testdata files after a deliberate trace-schema or
// runtime change with:
//
//	UPDATE_TRACE_GOLDEN=1 go test ./cmd/corraltrace/
import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"corral/internal/job"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/trace"
)

func fixtureJob(id int) *job.Job {
	return job.MapReduce(id, "shuffle", job.Profile{
		InputBytes:   512e6,
		ShuffleBytes: 2e9,
		OutputBytes:  100e6,
		MapTasks:     8,
		ReduceTasks:  8,
		MapRate:      2e8,
		ReduceRate:   2e8,
	})
}

// overloadFixture produces the committed trace bytes: run "budget" hits
// the incremental fallback tier at t=1 (rack 0 loses its machine
// majority under a budget between the incremental and full planner
// costs) and then has an all-rack uplink flap at t=21 suppressed by the
// still-open 30s replan window; run "admission" defers one arrival and
// sheds two past the queue cap.
func overloadFixture(t *testing.T) []byte {
	t.Helper()
	const gbps = 1e9 / 8
	topo := topology.Config{
		Racks:            4,
		MachinesPerRack:  4,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	}
	c := trace.NewCollector()

	j1, j2 := fixtureJob(1), fixtureJob(2)
	j2.Arrival = 20
	inc, full := planner.CostIncremental(2, 4, 2), planner.CostFull(2, 4, 2)
	var flaps []runtime.LinkFault
	for r := 0; r < topo.Racks; r++ {
		flaps = append(flaps,
			runtime.LinkFault{At: 21, Rack: r, Factor: 0},
			runtime.LinkFault{At: 21.2, Rack: r, Factor: 1})
	}
	if _, err := runtime.Run(runtime.Options{
		Cluster: topo, Scheduler: runtime.Corral, BlockSize: 64e6, Seed: 39,
		Plan: &planner.Plan{
			Objective: planner.MinimizeMakespan,
			Assignments: map[int]*planner.Assignment{
				1: {JobID: 1, Racks: []int{0}, Start: 0, EstLatency: 15},
				2: {JobID: 2, Racks: []int{0}, Start: 20, EstLatency: 15},
			},
		},
		ReplanOnFailure: true,
		PlannerBudget:   (inc + full) / 2,
		ReplanWindow:    30,
		Failures: []runtime.Failure{
			{At: 1, Machine: 0}, {At: 1, Machine: 1}, {At: 1, Machine: 2},
		},
		LinkFaults: flaps,
		Trace:      c.NewRun("budget"),
	}, []*job.Job{j1, j2}); err != nil {
		t.Fatal(err)
	}

	jobs := make([]*job.Job, 4)
	for i := range jobs {
		jobs[i] = fixtureJob(i + 1)
		jobs[i].Arrival = 0.1 * float64(i)
	}
	if _, err := runtime.Run(runtime.Options{
		Cluster: topo, BlockSize: 64e6, Seed: 5,
		AdmissionLimit: 1, AdmissionQueueCap: 1,
		Trace: c.NewRun("admission"),
	}, jobs); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSummaryGolden pins both the fixture bytes (trace schema stability)
// and the rendered summary, including the overload-degradation block.
func TestSummaryGolden(t *testing.T) {
	fixture := filepath.Join("testdata", "overload.trace.jsonl")
	golden := filepath.Join("testdata", "overload.summary.golden")
	raw := overloadFixture(t)
	if os.Getenv("UPDATE_TRACE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := summarize(&out, bytes.NewReader(raw), 3); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixture, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes) and %s (%d bytes)", fixture, len(raw), golden, out.Len())
		return
	}
	committed, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_TRACE_GOLDEN=1 go test ./cmd/corraltrace/)", err)
	}
	if !bytes.Equal(raw, committed) {
		t.Errorf("regenerated trace differs from committed fixture (%d vs %d bytes); "+
			"if the schema or runtime change is deliberate, refresh with UPDATE_TRACE_GOLDEN=1",
			len(raw), len(committed))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarize(&out, bytes.NewReader(committed), 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("summary drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
	// The fixture must actually exercise the degradation block — guard
	// against a regenerated fixture silently losing the overload events.
	for _, needle := range []string{
		"overload degradation:", "incremental", "suppressed",
		"admission control:", "shed",
	} {
		if !strings.Contains(out.String(), needle) {
			t.Errorf("summary lost %q (fixture no longer exercises the overload path)", needle)
		}
	}
}
