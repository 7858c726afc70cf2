package experiments

import (
	"reflect"
	"testing"

	"corral/internal/pool"
)

// TestChaosDeterminism: the full chaos sweep — trace generation plus three
// scheduler runs per bundled intensity — must be a pure function of
// (size, seed), down to every cell's full Result, when its cells run
// serially (TestParallelSweepTwoSeedReplay replays across a wide worker
// pool, TestSweepWorkerCountInvariance compares worker counts).
func TestChaosDeterminism(t *testing.T) {
	replayChaos(t, 1, 1, 42)
}

// replayChaos runs the chaos sweep twice per seed at the given worker
// count: the sweeps must be DeepEqual per seed and differ across the two
// seeds, which guards against a constant-seed fallback passing vacuously.
func replayChaos(t *testing.T, workers int, seeds ...int64) {
	t.Helper()
	defer pool.SetWorkers(0)
	pool.SetWorkers(workers)
	sweeps := map[int64]*chaosSweep{}
	for _, seed := range seeds {
		first, err := runChaos(SizeS, seed)
		if err != nil {
			t.Fatalf("seed %d: first run: %v", seed, err)
		}
		second, err := runChaos(SizeS, seed)
		if err != nil {
			t.Fatalf("seed %d: second run: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("seed %d: chaos sweep at %d workers not reproducible", seed, workers)
		}
		sweeps[seed] = first
	}
	if reflect.DeepEqual(sweeps[seeds[0]], sweeps[seeds[1]]) {
		t.Errorf("seeds %d and %d produced identical chaos sweeps; the seed is not reaching the traces",
			seeds[0], seeds[1])
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
// sweep the registry runs: at every fault intensity, Corral with
// failure-triggered replanning completes jobs on average no later than
// constraint-drop-only Corral, and no later than the Yarn-CS baseline.
func TestChaosGracefulDegradation(t *testing.T) {
	sw, err := runChaos(SizeS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(chaosIntensities) * len(faultSchedulers); len(sw.runs) != want {
		t.Fatalf("%d cells, want %d", len(sw.runs), want)
	}
	const eps = 1e-9
	for i, intensity := range chaosIntensities {
		cell := sw.runs[i*len(faultSchedulers):]
		y, d, pl := cell[0].AvgCompletionTime(), cell[1].AvgCompletionTime(), cell[2].AvgCompletionTime()
		if pl > d+eps {
			t.Errorf("intensity %g: replanning degraded Corral: %.3f > drop-only %.3f",
				intensity, pl, d)
		}
		if pl > y+eps {
			t.Errorf("intensity %g: Corral+replan lost to Yarn-CS: %.3f > %.3f",
				intensity, pl, y)
		}
		for k, sc := range faultSchedulers {
			if cell[k].AvgCompletionTime() <= 0 {
				t.Errorf("intensity %g: %s jobs did not all complete", intensity, sc.name)
			}
		}
	}
}
