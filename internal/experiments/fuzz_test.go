package experiments

import (
	"reflect"
	"testing"
)

// TestFuzzGate is the corralcheck acceptance gate on the sweep the
// registry runs: DefaultFuzzTraces randomized workload+fault traces under
// all three scheduler configurations plus a mid-flight snapshot/resume of
// every trace's corral-replan run, with zero invariant violations, and
// the traces demonstrably exercised the fault machinery (jobs completed).
func TestFuzzGate(t *testing.T) {
	sw, err := runFuzz(SizeS, 1, DefaultFuzzTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.violations) != 0 {
		t.Fatalf("%d invariant violations:\n%v", len(sw.violations), sw.violations)
	}
	// Each trace counts its three scheduler runs plus its resumed run.
	if want := DefaultFuzzTraces * (len(faultSchedulers) + 1); sw.runs != want {
		t.Fatalf("executed %d runs, want %d (3 schedulers + 1 resume per trace)", sw.runs, want)
	}
	if sw.completed == 0 {
		t.Fatal("no job completed across the sweep (vacuous gate)")
	}
	if len(sw.completions) != sw.completed {
		t.Fatalf("completions slice has %d entries for %d completed jobs",
			len(sw.completions), sw.completed)
	}
}

// TestFuzzTraceCoverage: the generator must actually produce every fault
// class somewhere in the bundled sweep — a fuzzer that never injects AM
// kills or corruption proves nothing about them.
func TestFuzzTraceCoverage(t *testing.T) {
	prof := profileFor(SizeS)
	var machineFaults, linkFaults, amKills, corruptions, crashy int
	for i := 0; i < DefaultFuzzTraces; i++ {
		seed := int64(1) + int64(i)*7919
		tr := genFuzzTrace(prof, seed, 100, []int{1, 2, 3, 4, 5})
		if len(tr.Failures) > 0 {
			machineFaults++
		}
		if len(tr.LinkFaults) > 0 {
			linkFaults++
		}
		if len(tr.AMFailures) > 0 {
			amKills++
		}
		if len(tr.Corruptions) > 0 {
			corruptions++
		}
		if tr.TaskFailureProb > 0.01 {
			crashy++
		}
		for _, af := range tr.AMFailures {
			if af.At < 0 || af.At > 100 {
				t.Fatalf("trace %d: AM failure outside horizon: %+v", i, af)
			}
		}
		for _, c := range tr.Corruptions {
			if c.Machine < 0 || c.Machine >= prof.topo.Machines() {
				t.Fatalf("trace %d: corruption targets bad machine: %+v", i, c)
			}
		}
	}
	for _, cls := range []struct {
		name string
		n    int
	}{
		{"machine failures", machineFaults},
		{"link faults", linkFaults},
		{"AM kills", amKills},
		{"corruptions", corruptions},
		{"task crashes", crashy},
	} {
		if cls.n == 0 {
			t.Errorf("no trace in the bundled sweep injects %s", cls.name)
		}
	}
}

// TestFuzzDeterminism: the whole sweep, resume checks included, is a pure
// function of its arguments down to the completion list, and the seed
// genuinely reaches the generated traces.
func TestFuzzDeterminism(t *testing.T) {
	sweeps := map[int64]*fuzzSweep{}
	for _, seed := range []int64{3, 77} {
		first, err := runFuzz(SizeS, seed, 4)
		if err != nil {
			t.Fatalf("seed %d: first run: %v", seed, err)
		}
		second, err := runFuzz(SizeS, seed, 4)
		if err != nil {
			t.Fatalf("seed %d: second run: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("seed %d: fuzz sweep not reproducible", seed)
		}
		sweeps[seed] = first
	}
	if reflect.DeepEqual(sweeps[int64(3)], sweeps[int64(77)]) {
		t.Error("seeds 3 and 77 produced identical fuzz sweeps; the seed is not reaching the traces")
	}
}

// TestAttritionSweepGate is the attrition acceptance gate on the sweep
// the registry runs: with retries, backoff and blacklisting at their
// defaults, every job completes at every bundled crash probability, and
// average completion time degrades monotonically as the crash rate rises.
func TestAttritionSweepGate(t *testing.T) {
	clean, runs, err := runAttrition(SizeS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(attritionProbs) {
		t.Fatalf("%d runs for %d probabilities", len(runs), len(attritionProbs))
	}
	prev := clean.AvgCompletionTime()
	for i, prob := range attritionProbs {
		res := runs[i]
		if res.FailedJobs != 0 {
			t.Errorf("p=%g: %d jobs failed; retries must carry every job to completion",
				prob, res.FailedJobs)
		}
		for _, jr := range res.Jobs {
			if !jr.Failed && jr.CompletionTime <= 0 {
				t.Fatalf("p=%g: job %d never completed", prob, jr.ID)
			}
		}
		avg := res.AvgCompletionTime()
		if avg < prev {
			t.Errorf("p=%g: avg completion %.3f improved on previous level %.3f; degradation must be monotone",
				prob, avg, prev)
		}
		prev = avg
	}
}
