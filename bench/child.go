package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"syscall"
	"time"
)

// minReps is the fewest timed reps a round makes, whatever its budget.
const minReps = 1

// cpuSeconds is the CPU time this process has used, all threads, user and
// system. The benchmark times every call with it rather than with the wall
// clock: on a shared virtual machine the hypervisor can take a third of
// the wall time away from a running vCPU for minutes at a time, and the
// guest kernel leaves that stolen time out of the process's CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// repRecord is one timed rep's measurements, times in CPU seconds.
type repRecord struct {
	PlanS     float64 `json:"plan_s"` // per planner call
	SimS      float64 `json:"sim_s"`
	CaptureS  float64 `json:"capture_s"`
	EncodeS   float64 `json:"encode_s"`
	DecodeS   float64 `json:"decode_s"`
	ResumeS   float64 `json:"resume_s"`
	Events    uint64  `json:"events"`     // summed over the rep's Simulate calls
	RunEvents uint64  `json:"run_events"` // of the checkpointed Corral run
	// The host-speed probe around each step.
	PlanProbeS float64 `json:"plan_probe_s"`
	SimProbeS  float64 `json:"sim_probe_s"`
	SnapProbeS float64 `json:"snap_probe_s"`
	// Heap and GC deltas over the rep's Simulate calls.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCCycles   uint32 `json:"gc_cycles"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
}

// roundOut is what one child process reports to the parent on stdout.
type roundOut struct {
	SetupS      float64            `json:"setup_s"`       // CPU seconds
	SetupProbeS float64            `json:"setup_probe_s"` // the probe around the set-up
	Reps        []repRecord        `json:"reps"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Exact       map[string]float64 `json:"exact"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
}

// checker counts attempted and failed operations: every library call and
// every verification is one operation.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// round is one child's work: set up, warm up, time reps until the budget
// is spent, and optionally run the instrumented passes.
type round struct {
	w          *workload
	seed       int64
	tiny       bool // run the test-only shape
	budget     time.Duration
	instrument bool
	traceOut   string // Chrome trace of the span run, when instrumented
}

func (r round) shape() shape {
	if r.tiny {
		return r.w.tiny
	}
	return r.w.full
}

func (r round) run() roundOut {
	var c checker
	out := roundOut{Exact: map[string]float64{}}
	finish := func() roundOut {
		out.Attempted, out.Failed, out.Failures = c.attempted, c.failed, c.failures
		return out
	}

	hc := newHostClock()
	hc.mark() // the probe time before the set-up

	// Set-up: inputs, the chaos horizon run, and one warm-up rep, which
	// pays for the process's first calls into the library and whose outputs
	// every later rep must reproduce.
	c0 := cpuSeconds()
	in, err := newInstance(r.w, r.shape(), r.seed)
	if !c.check(err == nil, "set-up: %v", err) {
		return finish()
	}
	ref, err := in.rep(nil, nil)
	if !c.check(err == nil, "warm-up rep: %v", err) {
		return finish()
	}
	out.SetupS = cpuSeconds() - c0
	out.SetupProbeS = hc.mark()
	in.verifyReference(&c, ref)
	if !r.tiny && r.seed == 1 {
		verifyPinned(&c, r.w.name, in, ref)
	}
	out.Exact = exactValues(in, ref)

	// Reps continue while the next one, taking as long as the last, would
	// end at most half a rep past the budget, so that on average the reps
	// take the whole budget.
	start := time.Now()
	var last time.Duration
	for len(out.Reps) < minReps || time.Since(start)+last/2 <= r.budget {
		t := time.Now()
		o, err := in.rep(nil, hc)
		if !c.check(err == nil, "rep %d: %v", len(out.Reps), err) {
			return finish()
		}
		last = time.Since(t)
		verifyRep(&c, ref, o)
		out.Reps = append(out.Reps, o.record())
	}

	if r.instrument {
		out.Layers = in.instrumented(&c, ref, out.Reps, r.traceOut)
	}
	return finish()
}

func (o *repOut) record() repRecord {
	rec := repRecord{
		PlanS: o.planS, SimS: o.simS,
		CaptureS: o.captureS, EncodeS: o.encodeS, DecodeS: o.decodeS, ResumeS: o.resumeS,
		RunEvents:  o.results[0].Events,
		PlanProbeS: o.planProbeS, SimProbeS: o.simProbeS, SnapProbeS: o.snapProbeS,
		AllocBytes: o.mem.TotalAlloc, Mallocs: o.mem.Mallocs,
		GCCycles: o.mem.NumGC, GCPauseNs: o.mem.PauseTotalNs,
	}
	for _, res := range o.results {
		rec.Events += res.Events
	}
	return rec
}

// verifyReference checks the warm-up rep's outputs for plausibility: every
// job finished, nothing failed, the resumed run matches the uninterrupted
// one, and the chaos workload really exercised its fault paths.
func (in *instance) verifyReference(c *checker, ref *repOut) {
	for _, res := range ref.results {
		c.check(len(res.Jobs) == len(in.jobs), "%v: %d job results for %d jobs", res.Scheduler, len(res.Jobs), len(in.jobs))
		c.check(res.FailedJobs == 0, "%v: %d failed jobs", res.Scheduler, res.FailedJobs)
		c.check(res.Makespan > 0 && res.Events > 0, "%v: empty run (makespan %g, %d events)", res.Scheduler, res.Makespan, res.Events)
	}
	c.check(reflect.DeepEqual(ref.resumed, ref.results[0]), "resumed Result differs from the uninterrupted run")
	if in.w.chaos {
		c.check(ref.results[0].Replans > 0, "chaos run never replanned")
		c.check(ref.results[0].RepairBytes > 0, "chaos run never re-replicated")
	}
}

// verifyRep checks a timed rep against the warm-up rep: the planner, the
// simulator and the snapshot path are deterministic, so every output must
// be DeepEqual.
func verifyRep(c *checker, ref, o *repOut) {
	c.check(reflect.DeepEqual(ref.plan, o.plan), "plan differs from the warm-up rep's")
	for i := range ref.results {
		c.check(reflect.DeepEqual(ref.results[i], o.results[i]), "%v Result differs from the warm-up rep's", ref.results[i].Scheduler)
	}
	c.check(reflect.DeepEqual(o.resumed, ref.results[0]), "resumed Result differs from the uninterrupted run")
}

// pinned holds outcomes at seed 1 that other tools already report for the
// same inputs: the scale suite's 10k cell, BENCH_baseline.json's Plan10k
// objective and corralsim -exp fig6 -size m. Each value carries the
// tolerance of its published precision.
var pinned = map[string][]struct {
	name      string
	want, tol float64
}{
	"dc-online": {
		{"events", 49902, 0},
		{"sim_makespan_s", 529.6, 0.05},
		{"plan_objective_s", 16.57, 0.005},
	},
	"paper-batch": {
		{"sim_makespan_gain_pct", 7.688459714039412, 1e-9},
	},
}

func verifyPinned(c *checker, name string, in *instance, ref *repOut) {
	got := exactValues(in, ref)
	for _, p := range pinned[name] {
		v := got[p.name]
		c.check(math.Abs(v-p.want) <= p.tol, "%s = %v, pinned %v", p.name, v, p.want)
	}
}

// exactValues are the deterministic outcomes of the warm-up rep: a pure
// function of the workload and seed, so two commits must agree on them
// exactly unless one changes what is simulated.
func exactValues(in *instance, ref *repOut) map[string]float64 {
	res := ref.results[0]
	m := map[string]float64{
		"events":           float64(res.Events),
		"sim_makespan_s":   res.Makespan,
		"sim_avg_jct_s":    res.AvgCompletionTime(),
		"sim_crossrack_gb": res.CrossRackBytes / 1e9,
		"plan_objective_s": ref.plan.ObjectiveValue(),
	}
	if in.w.batch {
		yarn := ref.results[1].Makespan
		m["sim_makespan_gain_pct"] = 100 * (yarn - res.Makespan) / yarn
	}
	return m
}

// memDelta returns the heap and GC counters accumulated between two reads.
func memDelta(before, after *runtime.MemStats) runtime.MemStats {
	return runtime.MemStats{
		TotalAlloc:   after.TotalAlloc - before.TotalAlloc,
		Mallocs:      after.Mallocs - before.Mallocs,
		NumGC:        after.NumGC - before.NumGC,
		PauseTotalNs: after.PauseTotalNs - before.PauseTotalNs,
	}
}
