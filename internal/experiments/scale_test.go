package experiments

import (
	"reflect"
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
		a, err := runScaleCell(seed, scaleTestCell)
		if err != nil {
			t.Fatalf("seed %d: first run: %v", seed, err)
		}
		b, err := runScaleCell(seed, scaleTestCell)
		if err != nil {
			t.Fatalf("seed %d: second run: %v", seed, err)
		}
		if a.rerun != "" || a.resume != "" {
			t.Errorf("seed %d: cell failed verification: rerun %q, resume %q", seed, a.rerun, a.resume)
		}
		if !reflect.DeepEqual(a.res, b.res) {
			t.Errorf("seed %d: cell not reproducible across runs:\n run1: %+v\n run2: %+v",
				seed, summarize(a.res), summarize(b.res))
		}
	}
}

// TestScaleSeedsActuallyDiffer guards the vacuous-pass direction: distinct
// seeds must change the workload, or TestScaleDeterminism proves nothing.
func TestScaleSeedsActuallyDiffer(t *testing.T) {
	a, err := runScaleCell(1, scaleTestCell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runScaleCell(42, scaleTestCell)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.res, b.res) {
		t.Error("seeds 1 and 42 produced identical scale results; the seed is not reaching the simulation")
	}
}

// TestScalePolicyEquivalence is the allocator contract at the scale
// cell's level: every policy name a snapshot may carry ("" and the legacy
// maxmin, maxmin-grouped and maxmin-incremental, all now the one max-min
// allocator) must resume a mid-flight capture of the 200-machine cell to
// the same Result runScaleCell reports — same events, same completions, same
// makespan. The differential against the per-flow MaxMinFair oracle on
// this cell is netsim_test's TestRunResultMatchesMaxMinFair.
func TestScalePolicyEquivalence(t *testing.T) {
	const seed = 7
	cell, err := runScaleCell(seed, scaleTestCell)
	if err != nil {
		t.Fatal(err)
	}
	base := cell.res
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
// scale cell: everything the report is rendered from (the Result, job and
// rack counts, plan objective and both verification verdicts) is identical
// whether the intra-cell verification fans out over 1 or 8 workers.
func TestScaleWorkerCountInvariance(t *testing.T) {
	defer pool.SetWorkers(0)
	run := func(workers int) scaleCell {
		t.Helper()
		pool.SetWorkers(workers)
		c, err := runScaleCell(3, scaleTestCell)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return c
	}
	serial, parallel := run(1), run(8)
	if serial.rerun != "" || serial.resume != "" {
		t.Fatalf("cell failed verification: rerun %q, resume %q", serial.rerun, serial.resume)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("cell differs across worker counts:\n serial:   %+v\n parallel: %+v",
			summarize(serial.res), summarize(parallel.res))
	}
}

// TestScaleParamErrors covers the cell's input validation.
func TestScaleParamErrors(t *testing.T) {
	if _, err := runScaleCell(1, 10); err == nil {
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
		if got := scaleLadder(tc.size); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("scaleLadder(%v) = %v, want %v", tc.size, got, tc.want)
		}
	}
}
