package experiments

// Crash-resume equivalence harness: the measurement companion to
// internal/runtime's snapshot layer, and the "resume" registry entry.
//
// The harness takes one fault-heavy monitored run as a baseline, snapshots
// the same spec at several random mid-flight event indices, tears each
// captured run down, restores from the serialized snapshot bytes, runs the
// resumed simulation to completion, and requires the outcome to be
// indistinguishable from the uninterrupted baseline: the final Result
// deep-equal, the full trace export byte-identical, and the invariant
// monitor silent on every resumed run. Snapshot points fan out over the
// sweep worker pool; each point is a pure function of (size, seed, point
// index), so the report is worker-count invariant like every other sweep.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"

	"corral/internal/invariants"
	"corral/internal/job"
	"corral/internal/metrics"
	"corral/internal/planner"
	"corral/internal/pool"
	"corral/internal/runtime"
	"corral/internal/snapshot"
	"corral/internal/trace"
	"corral/internal/workload"
)

// resumePoints is how many mid-flight snapshot points each seed is
// checked at.
const resumePoints = 3

// resumeSeeds are the seed offsets the registry entry checks: it runs
// seeds p.Seed+1 and p.Seed+42.
var resumeSeeds = [...]int64{1, 42}

// resumePoint is one snapshot-and-resume check.
type resumePoint struct {
	eventIndex uint64
	simTime    float64
	detail     string // first divergence; "" when the resumed run matched
	// snapshot holds the encoded snapshot of a mismatching point so a
	// failing gate can persist it as a debugging artifact; nil on match.
	snapshot []byte
}

// resumeScenario builds the fault-heavy run the harness snapshots: a
// small W1 sample with arrivals over a randomized window, under the
// corral-replan fuzz configuration (plan + failure-triggered replanning +
// machine/link/AM/corruption faults + task crashes), which touches every
// state category a snapshot must carry. runFuzz derives its three
// scheduler configurations from the same options.
func resumeScenario(prof profile, seed int64) (runtime.Options, []*job.Job, error) {
	topo := prof.topo
	wrng := rand.New(rand.NewSource(seed))
	nJobs := 3 + wrng.Intn(5)
	window := 20 + float64(60*wrng.Float64())
	jobs := workload.W1(prof.wcfg(seed, nJobs, window))
	plan, err := planJobs(topo, jobs, planner.MinimizeAvgCompletion)
	if err != nil {
		return runtime.Options{}, nil, fmt.Errorf("resume scenario seed %d: plan: %w", seed, err)
	}
	clean, err := runtime.Run(runtime.Options{
		Cluster: topo, Scheduler: runtime.Corral, Plan: plan, Seed: seed,
	}, workload.Clone(jobs))
	if err != nil {
		return runtime.Options{}, nil, fmt.Errorf("resume scenario seed %d: clean run: %w", seed, err)
	}
	ids := make([]int, len(jobs))
	for k, j := range jobs {
		ids[k] = j.ID
	}
	tr := genFuzzTrace(prof, seed, clean.Makespan, ids)
	opts := runtime.Options{
		Cluster:         topo,
		Scheduler:       runtime.Corral,
		Plan:            plan,
		Seed:            seed,
		ReplanOnFailure: true,
		Failures:        tr.Failures,
		LinkFaults:      tr.LinkFaults,
		AMFailures:      tr.AMFailures,
		Corruptions:     tr.Corruptions,
		TaskFailureProb: tr.TaskFailureProb,
	}
	return opts, jobs, nil
}

// resumeCheck captures the run (opts, jobs) after idx events, round-trips
// the snapshot through the codec — equivalence must hold for the
// serialized form a crashed process would restart from — resumes it with
// ro attached and compares the resumed Result against want. err reports
// an infrastructure failure (capture, encode, decode); mismatch is empty
// when the resumed run reproduces want and otherwise says how it failed.
func resumeCheck(opts runtime.Options, jobs []*job.Job, idx uint64, ro runtime.ResumeOptions, want *runtime.Result) (snap *snapshot.Snapshot, raw []byte, mismatch string, err error) {
	snap, err = runtime.CaptureAt(opts, workload.Clone(jobs), runtime.CheckpointTarget{EventIndex: idx})
	if err != nil {
		return nil, nil, "", fmt.Errorf("capture@%d: %w", idx, err)
	}
	if raw, err = snapshot.Encode(snap); err != nil {
		return nil, nil, "", fmt.Errorf("encode@%d: %w", idx, err)
	}
	decoded, err := snapshot.Decode(raw)
	if err != nil {
		return nil, nil, "", fmt.Errorf("decode@%d: %w", idx, err)
	}
	res, err := runtime.Resume(decoded, ro)
	switch {
	case err != nil:
		mismatch = fmt.Sprintf("resume@%d failed: %v", idx, err)
	case !reflect.DeepEqual(res, want):
		mismatch = fmt.Sprintf("resumed Result@%d differs from the uninterrupted run (makespan %.6f vs %.6f, events %d vs %d)",
			idx, res.Makespan, want.Makespan, res.Events, want.Events)
	}
	return snap, raw, mismatch, nil
}

// tracedBaseline runs the scenario uninterrupted with a tracer and the
// invariant monitor attached, returning the result and trace export.
func tracedBaseline(opts runtime.Options, jobs []*job.Job, label string) (*runtime.Result, []byte, error) {
	c := trace.NewCollector()
	mon := invariants.NewMonitor(opts.Cluster.Machines(), opts.Cluster.SlotsPerMachine)
	opts.Trace = c.NewRun(label)
	opts.Probe = mon
	res, err := runtime.Run(opts, workload.Clone(jobs))
	if err != nil {
		return nil, nil, err
	}
	if n := mon.ViolationCount(); n != 0 {
		return nil, nil, fmt.Errorf("baseline run raised %d invariant violations: %v", n, mon.Violations())
	}
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		return nil, nil, err
	}
	return res, buf.Bytes(), nil
}

// runResume runs the crash-resume equivalence check for one seed: the
// baseline's event count and resumePoints points, each resumed from a
// random mid-flight snapshot. Infrastructure failures (a run that errors
// outright) return an error; equivalence violations are reported in the
// points' details so the caller can render and persist them.
func runResume(size Size, seed int64) (events uint64, points []resumePoint, err error) {
	opts, jobs, err := resumeScenario(profileFor(size), seed)
	if err != nil {
		return 0, nil, err
	}
	label := fmt.Sprintf("resume-eq/seed%d", seed)
	base, baseTrace, err := tracedBaseline(opts, jobs, label)
	if err != nil {
		return 0, nil, err
	}
	if base.Events < 10 {
		return 0, nil, fmt.Errorf("resume seed %d: baseline fired only %d events", seed, base.Events)
	}
	// Random mid-flight indices, drawn from their own stream so point k is
	// independent of the point count.
	prng := rand.New(rand.NewSource(seed ^ 0x5eed))
	points = make([]resumePoint, resumePoints)
	for i := range points {
		points[i].eventIndex = 1 + uint64(prng.Int63n(int64(base.Events-1)))
	}
	// Each point is an independent capture + resume: fan out over the
	// sweep worker pool and collect in point order (see internal/pool).
	if err := pool.For(resumePoints, func(i int) error {
		pt := &points[i]
		c := trace.NewCollector()
		mon := invariants.NewMonitor(opts.Cluster.Machines(), opts.Cluster.SlotsPerMachine)
		snap, raw, mismatch, err := resumeCheck(opts, jobs, pt.eventIndex,
			runtime.ResumeOptions{Trace: c.NewRun(label), Probe: mon}, base)
		if err != nil {
			return fmt.Errorf("resume seed %d point %d: %w", seed, i, err)
		}
		pt.simTime = snap.Meta.SimTime
		if n := mon.ViolationCount(); mismatch == "" && n != 0 {
			mismatch = fmt.Sprintf("resumed run raised %d invariant violations: %v", n, mon.Violations())
		}
		if mismatch == "" {
			var buf bytes.Buffer
			if err := c.WriteJSONL(&buf); err != nil {
				return err
			}
			if !bytes.Equal(buf.Bytes(), baseTrace) {
				mismatch = fmt.Sprintf("trace export differs from uninterrupted run (%d vs %d bytes)",
					buf.Len(), len(baseTrace))
			}
		}
		if mismatch != "" {
			pt.detail, pt.snapshot = mismatch, raw
		}
		return nil
	}); err != nil {
		return 0, nil, err
	}
	return base.Events, points, nil
}

// ScenarioSnapshot captures the crash-resume scenario run for (size,
// seed) at the given target — the corralsim -snapshot-at entry point.
func ScenarioSnapshot(size Size, seed int64, target runtime.CheckpointTarget) (*snapshot.Snapshot, error) {
	opts, jobs, err := resumeScenario(profileFor(size), seed)
	if err != nil {
		return nil, err
	}
	return runtime.CaptureAt(opts, workload.Clone(jobs), target)
}

// Resume is the registry entry: the crash-resume equivalence check over
// resumeSeeds, resumePoints random mid-flight snapshot points each. Any
// mismatch surfaces in the report; the CI gate fails on it.
func Resume(p Params) (*Report, error) {
	r := newReport("resume: crash-resume equivalence of snapshotted runs")
	t := &metrics.Table{
		Title:   "snapshot / tear down / restore / run to completion vs uninterrupted run",
		Columns: []string{"seed", "events", "snapshot@", "t (s)", "bit-identical"},
	}
	mismatches := 0
	points := 0
	for _, off := range resumeSeeds {
		seed := p.Seed + off
		events, pts, err := runResume(p.Size, seed)
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			points++
			verdict := "yes"
			if pt.detail != "" {
				mismatches++
				verdict = "NO: " + pt.detail
			}
			t.AddRow(metrics.F(float64(seed), 0), metrics.F(float64(events), 0),
				metrics.F(float64(pt.eventIndex), 0), metrics.F(pt.simTime, 2), verdict)
		}
	}
	r.table(t)
	r.set("seeds", float64(len(resumeSeeds)))
	r.set("points", float64(points))
	r.set("mismatches", float64(mismatches))
	return r, nil
}
