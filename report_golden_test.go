package corral_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"corral"
)

// reportGolden holds every reproduced value at full precision: one
// section per registry experiment (the values of
// `corralsim -exp all -size s -seed 1 -json`) plus the api section.
var reportGolden = filepath.Join("testdata", "report_golden.json")

// apiSection names the golden section of values read from public API
// calls rather than from an experiment report.
const apiSection = "api"

// wallClock reports whether a report value is host timing rather than a
// simulation outcome: Fig 5's planner running times, the only values the
// golden leaves out.
func wallClock(id, key string) bool {
	return id == "fig5" && strings.HasPrefix(key, "planner_seconds_")
}

// reportValues runs every registry experiment at size s, seed 1, and the
// api scenarios, and returns their values without the wall-clock ones.
func reportValues(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	out := map[string]map[string]float64{}
	for _, e := range corral.Experiments() {
		if e.ID == apiSection {
			t.Fatalf("experiment ID %q collides with the golden's api section", e.ID)
		}
		r, err := corral.RunExperiment(e.ID, corral.SizeSmall, 1)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		vals := map[string]float64{}
		for k, v := range r.Values {
			if !wallClock(e.ID, k) {
				vals[k] = v
			}
		}
		out[e.ID] = vals
	}
	out[apiSection] = apiValues(t)
	return out
}

// apiValues are the deterministic outcomes of the root micro-benchmarks'
// scenarios (bench_test.go).
func apiValues(t *testing.T) map[string]float64 {
	adm := simulateAdmission(t)
	_, raw := snapshotScenario(t)
	vals := map[string]float64{
		"cost_full_100j16r":          corral.PlannerCostFull(100, 16, 300),
		"cost_incremental_100j16r":   corral.PlannerCostIncremental(100, 16, 300),
		"admission_deferred":         float64(adm.Deferred),
		"admission_shed":             float64(adm.Shed),
		"admission_peak_queue":       float64(adm.MaxAdmissionQueue),
		"snapshot_bytes":             float64(len(raw)),
		"snapshot_resume_makespan_s": resumeSnapshot(t, raw).Makespan,
	}
	for _, machines := range []int{2000, 10000} {
		cluster, jobs := scaleCell(machines)
		plan, err := corral.PlanOnline(cluster, jobs)
		if err != nil {
			t.Fatal(err)
		}
		vals[fmt.Sprintf("plan_objective_s_%dk", machines/1000)] = plan.AvgCompletion
	}
	return vals
}

// TestReportGolden gates every reproduced figure, ablation and extension
// value bit for bit against testdata/report_golden.json. A key missing on
// either side fails, so a new experiment or key cannot go ungated. The
// golden pins the values of an amd64 host with FMA, as TestScheduleLock
// does. Regenerate it only for a deliberate change of outcomes:
//
//	UPDATE_REPORT_GOLDEN=1 go test -run TestReportGolden .
func TestReportGolden(t *testing.T) {
	got := reportValues(t)
	if os.Getenv("UPDATE_REPORT_GOLDEN") != "" {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", reportGolden)
		return
	}
	raw, err := os.ReadFile(reportGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_REPORT_GOLDEN=1 go test -run TestReportGolden .)", err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", reportGolden, err)
	}
	diffs := diffReports(got, want)
	for _, d := range diffs {
		t.Error(d)
	}
	if len(diffs) > 0 {
		t.Logf("%d values differ from %s; regenerate with UPDATE_REPORT_GOLDEN=1 go test -run TestReportGolden . "+
			"only if the change of outcomes is deliberate", len(diffs), reportGolden)
	}
}

// diffReports lists, in sorted order, each experiment/key whose value
// differs by Float64bits between got and want, or exists on one side only.
func diffReports(got, want map[string]map[string]float64) []string {
	var diffs []string
	for id, vals := range got {
		for k, v := range vals {
			w, ok := want[id][k]
			switch {
			case !ok:
				diffs = append(diffs, fmt.Sprintf("%s/%s: got %v, missing from golden", id, k, v))
			case math.Float64bits(v) != math.Float64bits(w):
				diffs = append(diffs, fmt.Sprintf("%s/%s: got %v, golden %v", id, k, v, w))
			}
		}
	}
	for id, vals := range want {
		for k, w := range vals {
			if _, ok := got[id][k]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s/%s: golden %v, missing from run", id, k, w))
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}
