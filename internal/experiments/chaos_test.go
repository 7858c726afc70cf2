package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"corral/internal/pool"
)

// replaySeeds are the two seeds of the chaos replay.
var replaySeeds = [2]int64{1, 42}

// chaosReplay runs the full chaos sweep — trace generation plus three
// scheduler runs per bundled intensity — twice per replay seed across a
// wide worker pool. It runs once per test binary: TestChaosDeterminism
// and TestParallelSweepTwoSeedReplay check two properties of the same
// four sweeps. TestSweepWorkerCountInvariance compares worker counts.
var chaosReplay = sync.OnceValues(func() (map[int64][2]*chaosSweep, error) {
	defer pool.SetWorkers(0)
	pool.SetWorkers(8)
	sweeps := map[int64][2]*chaosSweep{}
	for _, seed := range replaySeeds {
		var pair [2]*chaosSweep
		for i := range pair {
			sw, err := runChaos(SizeS, seed)
			if err != nil {
				return nil, fmt.Errorf("seed %d: run %d: %w", seed, i+1, err)
			}
			pair[i] = sw
		}
		sweeps[seed] = pair
	}
	return sweeps, nil
})

// TestChaosDeterminism: the chaos sweep must be a pure function of
// (size, seed), down to every cell's full Result, when its cells run
// across a wide worker pool: each replay seed's two sweeps are DeepEqual.
func TestChaosDeterminism(t *testing.T) {
	sweeps, err := chaosReplay()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range replaySeeds {
		if pair := sweeps[seed]; !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("seed %d: chaos sweep at 8 workers not reproducible", seed)
		}
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
