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

// ResumeParams configures a crash-resume equivalence sweep.
type ResumeParams struct {
	Size Size
	Seed int64
}

// ResumePoint is one snapshot-and-resume check.
type ResumePoint struct {
	EventIndex uint64
	SimTime    float64
	Match      bool
	Detail     string // first divergence when Match is false
	// Snapshot holds the encoded snapshot of a mismatching point so a
	// failing gate can persist it as a debugging artifact; nil on match.
	Snapshot []byte
}

// ResumeReport is the sweep outcome for one seed.
type ResumeReport struct {
	Seed   int64
	Events uint64 // baseline event count
	Points []ResumePoint
}

// Mismatches returns the failing points' descriptions.
func (r *ResumeReport) Mismatches() []string {
	var out []string
	for _, p := range r.Points {
		if !p.Match {
			out = append(out, fmt.Sprintf("seed %d event %d (t=%.3f): %s",
				r.Seed, p.EventIndex, p.SimTime, p.Detail))
		}
	}
	return out
}

// resumeScenario builds the fault-heavy run the harness snapshots: a
// small W1 sample with arrivals over a randomized window, under the
// corral-replan fuzz configuration (plan + failure-triggered replanning +
// machine/link/AM/corruption faults + task crashes), which touches every
// state category a snapshot must carry. RunFuzz derives its three
// scheduler configurations from the same options.
func resumeScenario(prof profile, seed int64) (runtime.Options, []*job.Job, error) {
	topo := prof.topo
	wrng := rand.New(rand.NewSource(seed))
	nJobs := 3 + wrng.Intn(5)
	window := 20 + 60*wrng.Float64()
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

// RunResumeEquivalence runs the crash-resume equivalence sweep for one
// seed. Infrastructure failures (a run that errors outright) return an
// error; equivalence violations are reported as mismatched points so the
// caller can render and persist them.
func RunResumeEquivalence(p ResumeParams) (*ResumeReport, error) {
	prof := profileFor(p.Size)
	opts, jobs, err := resumeScenario(prof, p.Seed)
	if err != nil {
		return nil, err
	}
	label := fmt.Sprintf("resume-eq/seed%d", p.Seed)
	base, baseTrace, err := tracedBaseline(opts, jobs, label)
	if err != nil {
		return nil, err
	}
	if base.Events < 10 {
		return nil, fmt.Errorf("resume seed %d: baseline fired only %d events", p.Seed, base.Events)
	}
	rep := &ResumeReport{Seed: p.Seed, Events: base.Events, Points: make([]ResumePoint, resumePoints)}
	// Random mid-flight indices, drawn from their own stream so point k is
	// independent of the point count.
	prng := rand.New(rand.NewSource(p.Seed ^ 0x5eed))
	indices := make([]uint64, resumePoints)
	for i := range indices {
		indices[i] = 1 + uint64(prng.Int63n(int64(base.Events-1)))
	}
	// Each point is an independent capture + resume: fan out over the
	// sweep worker pool and collect in point order (see internal/pool).
	if err := pool.For(resumePoints, func(i int) error {
		pt := &rep.Points[i]
		pt.EventIndex = indices[i]
		c := trace.NewCollector()
		mon := invariants.NewMonitor(opts.Cluster.Machines(), opts.Cluster.SlotsPerMachine)
		snap, raw, mismatch, err := resumeCheck(opts, jobs, indices[i],
			runtime.ResumeOptions{Trace: c.NewRun(label), Probe: mon}, base)
		if err != nil {
			return fmt.Errorf("resume seed %d point %d: %w", p.Seed, i, err)
		}
		pt.SimTime = snap.Meta.SimTime
		if mismatch != "" {
			pt.Detail = mismatch
			pt.Snapshot = raw
			return nil
		}
		if n := mon.ViolationCount(); n != 0 {
			pt.Detail = fmt.Sprintf("resumed run raised %d invariant violations: %v", n, mon.Violations())
			pt.Snapshot = raw
			return nil
		}
		var buf bytes.Buffer
		if err := c.WriteJSONL(&buf); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), baseTrace) {
			pt.Detail = fmt.Sprintf("trace export differs from uninterrupted run (%d vs %d bytes)",
				buf.Len(), len(baseTrace))
			pt.Snapshot = raw
			return nil
		}
		pt.Match = true
		return nil
	}); err != nil {
		return nil, err
	}
	return rep, nil
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

// DefaultResumeSeeds are the seeds the registry entry and CI gate check.
var DefaultResumeSeeds = []int64{1, 42}

// Resume is the registry entry: the crash-resume equivalence sweep over
// the default seeds, resumePoints random mid-flight snapshot points
// each. Any mismatch surfaces in the report; the CI gate fails on it.
func Resume(p Params) (*Report, error) {
	r := newReport("resume: crash-resume equivalence of snapshotted runs")
	t := &metrics.Table{
		Title:   "snapshot / tear down / restore / run to completion vs uninterrupted run",
		Columns: []string{"seed", "events", "snapshot@", "t (s)", "bit-identical"},
	}
	mismatches := 0
	points := 0
	for _, seed := range DefaultResumeSeeds {
		rep, err := RunResumeEquivalence(ResumeParams{Size: p.Size, Seed: p.Seed + seed})
		if err != nil {
			return nil, err
		}
		for _, pt := range rep.Points {
			points++
			verdict := "yes"
			if !pt.Match {
				mismatches++
				verdict = "NO: " + pt.Detail
			}
			t.AddRow(metrics.F(float64(rep.Seed), 0), metrics.F(float64(rep.Events), 0),
				metrics.F(float64(pt.EventIndex), 0), metrics.F(pt.SimTime, 2), verdict)
		}
	}
	r.table(t)
	r.set("seeds", float64(len(DefaultResumeSeeds)))
	r.set("points", float64(points))
	r.set("mismatches", float64(mismatches))
	return r, nil
}
