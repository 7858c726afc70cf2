package main

import (
	"fmt"
	"runtime"

	"corral"
)

const gbps = 1e9 / 8

// shape fixes one workload's cluster and generator; the generator's Seed
// is filled in from -seed.
type shape struct {
	cluster corral.ClusterConfig
	gen     corral.WorkloadConfig
}

// workload is one set of inputs the benchmark drives through the public
// corral API. Every rep runs the same pipeline: plan, simulate every
// scheduler in the pair, then checkpoint the Corral run at half its events
// and resume it from the encoded bytes.
type workload struct {
	name string
	why  string
	full shape
	// tiny is the test-only shape the smoke tests run; no flag selects it.
	tiny shape
	// batch plans for makespan (PlanBatch) and simulates the Corral and
	// Yarn-CS pair; otherwise PlanOnline and Corral alone.
	batch bool
	// chaos adds a machine-failure trace and an uplink-flap storm over the
	// clean run's makespan, with failure-triggered replanning.
	chaos bool
}

func w1(jobs int, scale, arrival float64) corral.WorkloadConfig {
	return corral.WorkloadConfig{Jobs: jobs, Scale: scale, TaskScale: scale, ArrivalWindow: arrival}
}

func scaleCluster(racks int) corral.ClusterConfig {
	return corral.ClusterConfig{
		Racks: racks, MachinesPerRack: 40, SlotsPerMachine: 2,
		NICBandwidth: 10 * gbps, Oversubscription: 5,
	}
}

// paperCluster is Fig 6's size-m cluster with background core traffic at
// half the rack uplink.
func paperCluster() corral.ClusterConfig {
	c := corral.ClusterConfig{
		Racks: 7, MachinesPerRack: 8, SlotsPerMachine: 4,
		NICBandwidth: 10 * gbps, Oversubscription: 5,
	}
	c.BackgroundPerRack = 0.5 * c.RackUplinkCapacity()
	return c
}

var workloads = []*workload{
	{
		name: "dc-online",
		why:  "10k-machine online W1 stream under Corral: DES, dispatch and planning at scale, allocator a small share",
		full: shape{scaleCluster(250), w1(360, 1.0/8, 500)},
		tiny: shape{scaleCluster(5), w1(12, 1.0/40, 60)},
	},
	{
		name:  "paper-batch",
		why:   "Fig 6 W1 batch at size m, Corral and Yarn-CS: allocator-bound with mostly full passes, planning negligible",
		full:  shape{paperCluster(), w1(45, 1.0/8, 0)},
		tiny:  shape{paperCluster(), w1(8, 1.0/40, 0)},
		batch: true,
	},
	// More and smaller jobs than a 200-job, 1/8-scale cell: at that shape
	// a few large jobs decide the contention, and the allocator's work per
	// run varied twofold between seeds.
	{
		name:  "chaos-resume",
		why:   "2000 machines under machine failures, uplink flaps and replanning: fault, DFS repair, replan and snapshot paths",
		full:  shape{scaleCluster(50), w1(400, 1.0/16, 200)},
		tiny:  shape{scaleCluster(5), w1(12, 1.0/40, 30)},
		chaos: true,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// instance is one workload's generated inputs for one seed.
type instance struct {
	w        *workload
	seed     int64
	cluster  corral.ClusterConfig
	jobs     []*corral.Job
	failures []corral.Failure
	faults   []corral.LinkFault
}

func newInstance(w *workload, sh shape, seed int64) (*instance, error) {
	gen := sh.gen
	gen.Seed = seed
	in := &instance{w: w, seed: seed, cluster: sh.cluster, jobs: corral.W1(gen)}
	if !w.chaos {
		return in, nil
	}
	plan, err := in.plan()
	if err != nil {
		return nil, err
	}
	clean, err := corral.Simulate(corral.SimConfig{
		Cluster: in.cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: seed,
	}, corral.CloneJobs(in.jobs))
	if err != nil {
		return nil, fmt.Errorf("chaos horizon run: %w", err)
	}
	// The fault traces span the clean run's makespan.
	horizon := clean.Makespan
	in.failures, in.faults = corral.GenChaosTrace(in.cluster, seed, 0.05, horizon)
	in.faults = append(in.faults, flapStorm(in.cluster.Racks, horizon)...)
	return in, nil
}

// flapStorm takes rack (7i mod racks) down for half a period every H/40
// from 0.05H to 0.8H: link-capacity churn that forces the allocator into
// full passes and the planner into replans.
func flapStorm(racks int, horizon float64) []corral.LinkFault {
	period := horizon / 40
	var out []corral.LinkFault
	for i := 0; ; i++ {
		at := 0.05*horizon + float64(i)*period
		if at > 0.8*horizon {
			return out
		}
		r := (7 * i) % racks
		out = append(out,
			corral.LinkFault{At: at, Rack: r, Factor: 0},
			corral.LinkFault{At: at + period/2, Rack: r, Factor: 1})
	}
}

func (in *instance) plan() (*corral.Plan, error) {
	if in.w.batch {
		return corral.PlanBatch(in.cluster, in.jobs)
	}
	return corral.PlanOnline(in.cluster, in.jobs)
}

// configs returns the rep's simulations; the first is the Corral run that
// is checkpointed and whose outcomes are reported.
func (in *instance) configs(plan *corral.Plan) []corral.SimConfig {
	c := corral.SimConfig{
		Cluster: in.cluster, Scheduler: corral.SchedulerCorral, Plan: plan, Seed: in.seed,
		Failures: in.failures, LinkFaults: in.faults, ReplanOnFailure: in.w.chaos,
	}
	if !in.w.batch {
		return []corral.SimConfig{c}
	}
	y := c
	y.Scheduler, y.Plan = corral.SchedulerYarnCS, nil
	return []corral.SimConfig{c, y}
}

// repOut is one rep's outputs and timings.
type repOut struct {
	plan      *corral.Plan
	results   []*corral.Result
	resumed   *corral.Result
	replayed  uint64 // events replayed to the checkpoint
	snapBytes int
	// CPU seconds per step; planS is per planner call.
	planS, simS, captureS, encodeS, decodeS, resumeS float64
	// The probe times around planning, simulating and the snapshot round
	// trip, when the rep ran with a hostClock.
	planProbeS, simProbeS, snapProbeS float64
	// mem holds heap and GC deltas over the Simulate calls.
	mem runtime.MemStats
	// alloc holds the timing wrapper's counts, one per Simulate call, in
	// span runs only.
	alloc []allocStats
}

// A rep plans in planBatches batches and keeps the fastest: interference
// from the host only ever slows a batch down, so the best of a few is far
// steadier than any one. A batch repeats the planner call until the calls
// add up to minPlanCPU (paper-batch plans in under a millisecond), so that
// a batch is not one clock tick; its time is the mean per call.
const (
	planBatches = 3
	minPlanCPU  = 0.05
)

// rep runs one plan → simulate → checkpoint → resume pass. sp, when
// non-nil, records a span around each call into the library and routes
// every Simulate through a timing wrapper around the default allocator.
// hc, when non-nil, times the host-speed probe after each of the three
// steps.
func (in *instance) rep(sp *spans, hc *hostClock) (*repOut, error) {
	out := &repOut{}
	var err error
	done := sp.begin("plan")
	for b := 0; b < planBatches && err == nil; b++ {
		c0 := cpuSeconds()
		calls := 0
		for calls == 0 || cpuSeconds()-c0 < minPlanCPU {
			if out.plan, err = in.plan(); err != nil {
				break
			}
			calls++
		}
		if s := (cpuSeconds() - c0) / float64(max(calls, 1)); b == 0 || s < out.planS {
			out.planS = s
		}
	}
	done()
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	out.planProbeS = hc.mark()

	cfgs := in.configs(out.plan)
	clones := make([][]*corral.Job, len(cfgs))
	policies := make([]instrumentedPolicy, len(cfgs))
	for i := range cfgs {
		clones[i] = corral.CloneJobs(in.jobs)
		if sp != nil {
			policies[i] = newTimedPolicy(sp)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, cfg := range cfgs {
		if sp != nil {
			cfg.Network = policies[i]
		}
		done := sp.begin("simulate")
		c0 := cpuSeconds()
		res, err := corral.Simulate(cfg, clones[i])
		out.simS += cpuSeconds() - c0
		done()
		if err != nil {
			return nil, fmt.Errorf("simulate %v: %w", cfg.Scheduler, err)
		}
		out.results = append(out.results, res)
	}
	runtime.ReadMemStats(&after)
	out.mem = memDelta(&before, &after)
	out.simProbeS = hc.mark()
	if sp != nil {
		for _, p := range policies {
			out.alloc = append(out.alloc, p.stats())
		}
	}

	if err := in.checkpoint(cfgs[0], out, sp); err != nil {
		return nil, err
	}
	out.snapProbeS = hc.mark()
	return out, nil
}

// checkpoint captures the Corral run at half its events, encodes the
// snapshot, then decodes it and resumes the run to completion.
func (in *instance) checkpoint(cfg corral.SimConfig, out *repOut, sp *spans) error {
	out.replayed = out.results[0].Events / 2
	done := sp.begin("checkpoint")
	c0 := cpuSeconds()
	snap, err := corral.CaptureSnapshot(cfg, corral.CloneJobs(in.jobs), corral.CheckpointTarget{EventIndex: out.replayed})
	out.captureS = cpuSeconds() - c0
	if err != nil {
		done()
		return fmt.Errorf("capture: %w", err)
	}
	c0 = cpuSeconds()
	raw, err := corral.EncodeSnapshot(snap)
	out.encodeS = cpuSeconds() - c0
	done()
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	out.snapBytes = len(raw)

	done = sp.begin("resume")
	defer done()
	c0 = cpuSeconds()
	dec, err := corral.DecodeSnapshot(raw)
	out.decodeS = cpuSeconds() - c0
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	c0 = cpuSeconds()
	out.resumed, err = corral.ResumeSnapshot(dec, corral.ResumeOptions{})
	out.resumeS = cpuSeconds() - c0
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	return nil
}
