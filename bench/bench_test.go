package main

import (
	"math"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"

	"corral"
)

func loadTestBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	tinyOnce   sync.Once
	tinyRounds map[string]roundOut
)

// runTinyRounds runs one instrumented round of every workload on its
// test-only shape, once per test binary.
func runTinyRounds() map[string]roundOut {
	tinyOnce.Do(func() {
		tinyRounds = map[string]roundOut{}
		for _, w := range workloads {
			tinyRounds[w.name] = round{w: w, seed: 1, tiny: true, instrument: true}.run()
		}
	})
	return tinyRounds
}

func TestBenchmarkJSONNamesUnitsAndBounds(t *testing.T) {
	b := loadTestBenchmark(t)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), b.EndToEnd...), b.PerLayer...) {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 || seen[m.Name] {
			t.Errorf("metric name %q is invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: invalid unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, bad := range []string{"", "sim s", "a/b", "x:y"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name regex accepts %q", bad)
		}
	}
	setup, largest := 0.0, 0.0
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			continue
		}
		largest = math.Max(largest, *m.Bound)
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s declared as %s/%s", m.Unit, m.Better)
			}
			setup = *m.Bound
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s bound %v, want present and the largest (%v)", setup, largest)
	}
	for _, m := range b.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
	var declared, coded []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		coded = append(coded, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(declared, coded) {
		t.Errorf("BENCHMARK.json workloads %q, code has %q", declared, coded)
	}
}

// TestTinyWorkloadsRunClean is the smoke run: every workload's pipeline,
// both instrumented passes included, verifies cleanly on a small shape.
func TestTinyWorkloadsRunClean(t *testing.T) {
	for name, ro := range runTinyRounds() {
		if ro.Failed != 0 || ro.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %q", name, ro.Failed, ro.Attempted, ro.Failures)
		}
		if len(ro.Reps) < minReps {
			t.Errorf("%s: %d timed reps, want at least %d", name, len(ro.Reps), minReps)
		}
		if v := ro.Layers["invariants.violations"]; v != 0 {
			t.Errorf("%s: %v invariant violations", name, v)
		}
		if ro.Layers["netsim.allocate_calls"] <= 0 || ro.Layers["runtime.events"] <= 0 {
			t.Errorf("%s: instrumented runs counted nothing: %v", name, ro.Layers)
		}
	}
	if ro := runTinyRounds()["chaos-resume"]; ro.Layers["runtime.machine_failures"] <= 0 || ro.Layers["planner.replans"] <= 0 {
		t.Errorf("chaos-resume exercised no faults: %v", ro.Layers)
	}
}

// TestEmittedMetricsMatchBenchmarkJSON checks that the metrics a run emits
// are exactly the ones BENCHMARK.json declares, in both modes.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadTestBenchmark(t)
	names := func(defs []metricDef) []string {
		var out []string
		for _, m := range defs {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for name, ro := range runTinyRounds() {
		if got, want := keys(endToEndSamples([]roundOut{ro}, []float64{1})), names(b.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s end-to-end metrics:\n got %v\nwant %v", name, got, want)
		}
		if got, want := keys(ro.Layers), names(b.PerLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s per-layer metrics:\n got %v\nwant %v", name, got, want)
		}
		wr := workloadReport{Name: name}
		wr.aggregate(options{trace: traceBoth, benchmark: b}, []roundOut{ro, ro}, []float64{1})
		if wr.Failed != 0 {
			t.Errorf("%s: aggregation failed: %q", name, wr.Failures)
		}
	}
}

func tinyInstance(t *testing.T, name string) *instance {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInstance(w, w.tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestPerturbedResultFailsVerification is the anti-vacuity check: a rep
// whose outputs differ from the reference by one ulp must fail, raising
// the failed-operation share above zero.
func TestPerturbedResultFailsVerification(t *testing.T) {
	in := tinyInstance(t, "paper-batch")
	ref, err := in.rep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	perturbations := map[string]func(o *repOut){
		"makespan": func(o *repOut) {
			r := *o.results[1]
			r.Makespan = math.Nextafter(r.Makespan, math.Inf(1))
			o.results[1] = &r
		},
		"job completion": func(o *repOut) {
			r := *o.results[0]
			r.Jobs = append([]corral.JobResult(nil), r.Jobs...)
			r.Jobs[0].CompletionTime = math.Nextafter(r.Jobs[0].CompletionTime, 0)
			o.results[0] = &r
		},
		"resumed run": func(o *repOut) {
			r := *o.resumed
			r.Events++
			o.resumed = &r
		},
	}
	var clean checker
	o, err := in.rep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyRep(&clean, ref, o)
	if clean.failed != 0 || clean.attempted == 0 {
		t.Fatalf("unperturbed rep: %d of %d checks failed: %q", clean.failed, clean.attempted, clean.failures)
	}
	for name, perturb := range perturbations {
		o, err := in.rep(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		perturb(o)
		var c checker
		verifyRep(&c, ref, o)
		if frac := float64(c.failed) / float64(c.attempted); frac <= 0 {
			t.Errorf("%s perturbed: failed share %v, want > 0", name, frac)
		}
	}

	// The tiny shape's outcomes are not the size-m ones pinned at seed 1.
	var c checker
	verifyPinned(&c, "paper-batch", in, ref)
	if c.failed == 0 {
		t.Errorf("tiny shape's gain %v passed the pinned size-m check", exactValues(in, ref)["sim_makespan_gain_pct"])
	}
}

// TestSelfTimesSumToParent checks the span bookkeeping: self times over a
// subtree add up to the subtree root's duration, and Allocate spans nest
// under Simulate spans.
func TestSelfTimesSumToParent(t *testing.T) {
	in := tinyInstance(t, "dc-online")
	sp := newSpans(1024)
	root := sp.push("workload")
	if _, err := in.rep(sp, nil); err != nil {
		t.Fatal(err)
	}
	sp.pop(root)
	self := selfTimes(sp.list)
	subtree := make([]int64, len(sp.list))
	for i := len(sp.list) - 1; i >= 0; i-- { // children follow parents
		subtree[i] += self[i]
		if p := sp.list[i].parent; p >= 0 {
			subtree[p] += subtree[i]
		}
	}
	allocs := 0
	for i, s := range sp.list {
		dur := s.end - s.start
		if self[i] < 0 || math.Abs(float64(subtree[i]-dur)) > 0.01*float64(dur) {
			t.Errorf("span %d %s: self %d, subtree self %d, duration %d", i, s.name, self[i], subtree[i], dur)
		}
		if s.name == "allocate" {
			allocs++
			if sp.list[s.parent].name != "simulate" {
				t.Errorf("allocate span under %q", sp.list[s.parent].name)
			}
		}
	}
	if allocs == 0 {
		t.Error("span run recorded no Allocate spans")
	}
}

// TestSpanRunMatchesPlainRun checks the timing wrapper's fidelity: routing
// Allocate through it leaves every Result bit unchanged.
func TestSpanRunMatchesPlainRun(t *testing.T) {
	in := tinyInstance(t, "chaos-resume")
	plain, err := in.rep(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	spanned, err := in.rep(newSpans(1024), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.results, spanned.results) {
		t.Error("Result through the timing wrapper differs from the plain run's")
	}
	st := spanned.alloc[0]
	if st.calls == 0 || !st.roundsOK || st.incremental+st.full != st.calls {
		t.Errorf("wrapper counts %+v", st)
	}
	if timePolicy(corral.VarysCoflow(), nil).stats().roundsOK {
		t.Error("an allocator without Rounds() reported rounds")
	}
}

// TestProbeAllocatesNothing guards the host-speed probe: it must not
// allocate, so that the program's heap and its collections cannot change
// the probe's time.
func TestProbeAllocatesNothing(t *testing.T) {
	p := newProbe()
	if n := testing.AllocsPerRun(2, func() { p.sink += p.run() }); n != 0 {
		t.Errorf("probe allocates %v times a run", n)
	}
}
