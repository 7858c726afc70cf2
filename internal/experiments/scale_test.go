package experiments

import (
	"reflect"
	"strings"
	"testing"

	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/snapshot"
	"corral/internal/workload"
)

// scaleTestCell keeps the scale tests inside unit-test budgets: 200
// machines is 5 racks of 40 — big enough to exercise the cross-rack fabric
// and the mid-flight snapshot, small enough for seconds of wall time.
const scaleTestCell = 200

// TestScaleDeterminism mirrors TestBatchDeterminism for the scale suite:
// the same seed must reproduce the cell's full runtime.Result bit for bit,
// and the cell's own built-in verification (same-seed rerun plus mid-flight
// snapshot/resume) must pass. Two seeds guard against seed-plumbing
// mistakes a single seed would hide.
func TestScaleDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		p := ScaleParams{Seed: seed, Machines: []int{scaleTestCell}}
		first, err := RunScale(p)
		if err != nil {
			t.Fatalf("seed %d: first sweep: %v", seed, err)
		}
		second, err := RunScale(p)
		if err != nil {
			t.Fatalf("seed %d: second sweep: %v", seed, err)
		}
		for i := range first.Cells {
			a, b := first.Cells[i], second.Cells[i]
			if !a.DeterminismOK || !a.ResumeOK {
				t.Errorf("seed %d: cell %d machines failed verification: %s", seed, a.Machines, a.Detail)
			}
			if !reflect.DeepEqual(a.Result, b.Result) {
				t.Errorf("seed %d: %d machines not reproducible across sweeps:\n run1: %+v\n run2: %+v",
					seed, a.Machines, summarize(a.Result), summarize(b.Result))
			}
		}
	}
}

// TestScaleSeedsActuallyDiffer guards the vacuous-pass direction: distinct
// seeds must change the workload, or TestScaleDeterminism proves nothing.
func TestScaleSeedsActuallyDiffer(t *testing.T) {
	a, err := RunScale(ScaleParams{Seed: 1, Machines: []int{scaleTestCell}, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScale(ScaleParams{Seed: 42, Machines: []int{scaleTestCell}, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cells[0].Result, b.Cells[0].Result) {
		t.Error("seeds 1 and 42 produced identical scale results; the seed is not reaching the simulation")
	}
}

// TestScalePolicyEquivalence is the allocator contract at the scale
// cell's level: every policy name a snapshot may carry ("" and the legacy
// maxmin, maxmin-grouped and maxmin-incremental, all now the one max-min
// allocator) must resume a mid-flight capture of the 200-machine cell to
// the same Result RunScale reports — same events, same completions, same
// makespan. The differential against the per-flow MaxMinFair oracle on
// this cell is netsim_test's TestRunResultMatchesMaxMinFair.
func TestScalePolicyEquivalence(t *testing.T) {
	const seed = 7
	rep, err := RunScale(ScaleParams{Seed: seed, Machines: []int{scaleTestCell}, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	base := rep.Cells[0].Result
	topo := scaleTopo(scaleTestCell)
	jobs := scaleWorkload(scaleTestCell, seed)
	plan, err := planJobs(topo, jobs, planner.MinimizeAvgCompletion)
	if err != nil {
		t.Fatal(err)
	}
	o := runtime.Options{Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: seed}
	for _, net := range []string{"", "maxmin-incremental", "maxmin-grouped", "maxmin"} {
		snap, err := runtime.CaptureAt(o, workload.Clone(jobs), runtime.CheckpointTarget{EventIndex: base.Events / 2})
		if err != nil {
			t.Fatalf("network %q: capture: %v", net, err)
		}
		snap.Spec.Policy = net
		raw, err := snapshot.Encode(snap)
		if err != nil {
			t.Fatalf("network %q: encode: %v", net, err)
		}
		dec, err := snapshot.Decode(raw)
		if err != nil {
			t.Fatalf("network %q: decode: %v", net, err)
		}
		got, err := runtime.Resume(dec, runtime.ResumeOptions{})
		if err != nil {
			t.Fatalf("network %q: resume: %v", net, err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("network %q diverged from the default allocator:\n got:  %+v\n want: %+v",
				net, summarize(got), summarize(base))
		}
	}
}

// TestScaleWorkerCountInvariance pins the sweep-pool contract for the
// report path: every semantic key (everything not wallclock_-prefixed) is
// identical whether the intra-cell verification fans out over 1 or 8
// workers.
func TestScaleWorkerCountInvariance(t *testing.T) {
	defer pool.SetWorkers(0)
	run := func(workers int) *Report {
		t.Helper()
		pool.SetWorkers(workers)
		rep, err := RunScale(ScaleParams{Seed: 3, Machines: []int{scaleTestCell}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return scaleReport(rep)
	}
	serial, parallel := run(1), run(8)
	if got := serial.Values["verification_failures"]; got != 0 {
		t.Fatalf("verification_failures = %v, want 0", got)
	}
	for _, k := range serial.Keys() {
		if strings.HasPrefix(k, "wallclock_") {
			continue
		}
		//corralvet:ok floateq exact identity intended: the worker count must not change a single bit of any report value
		if serial.Values[k] != parallel.Values[k] {
			t.Errorf("key %q differs across worker counts: serial %v, parallel %v",
				k, serial.Values[k], parallel.Values[k])
		}
	}
	if len(serial.Keys()) != len(parallel.Keys()) {
		t.Errorf("key sets differ: serial %d keys, parallel %d", len(serial.Keys()), len(parallel.Keys()))
	}
}

// TestScaleParamErrors covers the sweep's input validation.
func TestScaleParamErrors(t *testing.T) {
	if _, err := RunScale(ScaleParams{Machines: []int{10}}); err == nil {
		t.Error("sub-rack cell accepted; want error")
	}
}

// TestScaleLadder pins the Size ladders CI and nightly reference.
func TestScaleLadder(t *testing.T) {
	for _, tc := range []struct {
		size Size
		want []int
	}{
		{SizeS, []int{2000}},
		{SizeM, []int{2000, 5000}},
		{SizeL, []int{2000, 5000, 10000}},
	} {
		if got := ScaleLadder(tc.size); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ScaleLadder(%v) = %v, want %v", tc.size, got, tc.want)
		}
	}
}
