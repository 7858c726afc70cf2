package experiments

import (
	"reflect"
	"testing"
)

// TestChaosDeterminism: the full chaos sweep — trace generation plus three
// scheduler runs per intensity — must be a pure function of (params, seed).
// Two seeds guard against a constant-seed fallback passing vacuously.
func TestChaosDeterminism(t *testing.T) {
	params := func(seed int64) ChaosParams {
		return ChaosParams{Size: SizeS, Seed: seed, Intensities: []float64{0.2, 0.5}}
	}
	reports := map[int64]*ChaosReport{}
	for _, seed := range []int64{1, 42} {
		first, err := RunChaos(params(seed))
		if err != nil {
			t.Fatalf("seed %d: first run: %v", seed, err)
		}
		second, err := RunChaos(params(seed))
		if err != nil {
			t.Fatalf("seed %d: second run: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("seed %d: chaos sweep not reproducible", seed)
		}
		reports[seed] = first
	}
	if reflect.DeepEqual(reports[int64(1)], reports[int64(42)]) {
		t.Error("seeds 1 and 42 produced identical chaos reports; the seed is not reaching the traces")
	}
}

// TestChaosTraceShape sanity-checks generated traces: bounded within the
// horizon, transient downtimes, and every uplink degradation paired with a
// restore so no fault is permanent.
func TestChaosTraceShape(t *testing.T) {
	topo := profileFor(SizeS).topo
	failures, faults := GenChaosTrace(topo, 7, 0.5, 100)
	if len(failures) == 0 {
		t.Fatal("intensity 0.5 produced no machine failures")
	}
	for _, f := range failures {
		if f.At < 0 || f.At >= 100 {
			t.Fatalf("failure outside horizon: %+v", f)
		}
		if f.Downtime <= 0 || f.Downtime > 100*0.15*1.5 {
			t.Fatalf("downtime out of bounds: %+v", f)
		}
		if f.Machine < 0 || f.Machine >= topo.Machines() {
			t.Fatalf("failure targets bad machine: %+v", f)
		}
	}
	degraded := map[int]float64{} // rack -> last factor seen
	for _, lf := range faults {
		if lf.Rack < 0 || lf.Rack >= topo.Racks {
			t.Fatalf("fault targets bad rack: %+v", lf)
		}
		degraded[lf.Rack] = lf.Factor
	}
	for r, f := range degraded {
		if f != 1 {
			t.Errorf("rack %d trace ends degraded (factor %g); faults must always restore", r, f)
		}
	}
	if f0, _ := GenChaosTrace(topo, 7, 0, 100); f0 != nil {
		t.Error("zero intensity should produce an empty trace")
	}
}

// TestChaosGracefulDegradation is the acceptance gate on the bundled
// trace: at every fault intensity, Corral with failure-triggered
// replanning completes jobs on average no later than constraint-drop-only
// Corral, and no later than the Yarn-CS baseline.
func TestChaosGracefulDegradation(t *testing.T) {
	rep, err := RunChaos(ChaosParams{Size: SizeS, Seed: 1, Intensities: DefaultChaosIntensities})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	for _, run := range rep.Runs {
		y, d, pl := run.Yarn.AvgCompletionTime(), run.CorralDrop.AvgCompletionTime(), run.CorralReplan.AvgCompletionTime()
		if pl > d+eps {
			t.Errorf("intensity %g: replanning degraded Corral: %.3f > drop-only %.3f",
				run.Intensity, pl, d)
		}
		if pl > y+eps {
			t.Errorf("intensity %g: Corral+replan lost to Yarn-CS: %.3f > %.3f",
				run.Intensity, pl, y)
		}
		for _, res := range []struct {
			name string
			avg  float64
		}{{"yarn", y}, {"drop", d}, {"replan", pl}} {
			if res.avg <= 0 {
				t.Errorf("intensity %g: %s jobs did not all complete", run.Intensity, res.name)
			}
		}
	}
}
