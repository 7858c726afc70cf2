package runtime

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"corral/internal/job"
	"corral/internal/model"
	"corral/internal/planner"
	"corral/internal/topology"
	"corral/internal/trace"
	"corral/internal/workload"
)

// The schedule lock pins the exact outcome of every scheduler on a
// 24-rack cluster: the full Result plus the RNG draw count, hashed. Any
// change to dispatch — which slots it offers, in which order, and how
// many heartbeat-shuffle draws it consumes — moves a digest. The digests
// were generated before the rack-demand filter, the direct-draw shuffle
// and the block-refilled draw source went in, so they prove all three
// optimizations bit-identical.

// lockTopo is 24 racks x 5 machines x 2 slots: enough racks that planned
// jobs leave most of the cluster outside their rack sets.
func lockTopo() topology.Config {
	return topology.Config{
		Racks:            24,
		MachinesPerRack:  5,
		SlotsPerMachine:  2,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	}
}

// lockJobs is a small-task W1 mix; with adhoc set, every third job is
// re-marked ad-hoc so the plan-driven schedulers run their planned/ad-hoc
// capacity queues.
func lockJobs(window float64, adhoc bool) []*job.Job {
	jobs := workload.W1(workload.Config{
		Seed: 5, Jobs: 18, Scale: 0.02, TaskScale: 0.05, ArrivalWindow: window,
	})
	if adhoc {
		var adhocJobs []*job.Job
		for i := 2; i < len(jobs); i += 3 {
			adhocJobs = append(adhocJobs, jobs[i])
		}
		workload.MarkAdHoc(adhocJobs)
	}
	return jobs
}

func lockPlan(t *testing.T, topo topology.Config, jobs []*job.Job) *planner.Plan {
	t.Helper()
	var planned []*job.Job
	for _, j := range jobs {
		if !j.AdHoc {
			planned = append(planned, j)
		}
	}
	p, err := planner.New(planner.Input{
		Cluster:   model.FromTopology(topo),
		Jobs:      planned,
		Alpha:     -1,
		Objective: planner.MinimizeAvgCompletion,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// planRacks returns the rack set of the highest-priority assignment.
func planRacks(p *planner.Plan) []int {
	var best *planner.Assignment
	for _, a := range p.Assignments {
		if best == nil || a.Priority < best.Priority {
			best = a
		}
	}
	return best.Racks
}

// resultDigest hashes a Result (floats print in shortest round-trip form,
// so equal text means equal bits) together with the run's RNG draw count.
func resultDigest(res *Result, draws uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|draws=%d", *res, draws)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestScheduleLock(t *testing.T) {
	topo := lockTopo()
	type scenario struct {
		name   string
		window float64
		adhoc  bool
		sched  Kind
		setup  func(o *Options, plan *planner.Plan)
		// check is the scenario's anti-vacuity test: the path it names
		// really ran.
		check func(rt *runtime, res *Result, p *countingProbe) error
		want  string
	}
	none := func(*Options, *planner.Plan) {}
	ok := func(*runtime, *Result, *countingProbe) error { return nil }
	mixed := func(rt *runtime, _ *Result, _ *countingProbe) error {
		if !rt.havePlanned || !rt.haveAdhoc {
			return fmt.Errorf("planned %v, ad-hoc %v: the capacity queues never formed", rt.havePlanned, rt.haveAdhoc)
		}
		return nil
	}
	relaxed := func(rt *runtime, _ *Result, p *countingProbe) error {
		if p.kinds[trace.KMachineDown] == 0 {
			return fmt.Errorf("no machine went down")
		}
		if rt.opts.Scheduler == YarnCS {
			return nil // unconstrained: nothing to relax
		}
		for _, je := range rt.jobs {
			if je.assignment != nil && je.allowedRacks == nil {
				return nil
			}
		}
		return fmt.Errorf("no planned job had its rack constraint relaxed")
	}
	replanned := func(_ *runtime, res *Result, _ *countingProbe) error {
		if res.Replans == 0 {
			return fmt.Errorf("rack isolation triggered no replan")
		}
		return nil
	}
	blacklisted := func(_ *runtime, _ *Result, p *countingProbe) error {
		if p.kinds[trace.KBlacklist] == 0 {
			return fmt.Errorf("no machine was blacklisted")
		}
		return nil
	}
	// Majority loss in each planned rack of the first job: allowedRacks
	// relaxes to nil mid-run (failures.go rack-failure fallback).
	rackLoss := func(o *Options, p *planner.Plan) {
		for _, r := range planRacks(p) {
			lo := r * topo.MachinesPerRack
			for k := 0; k < 3; k++ {
				o.Failures = append(o.Failures, Failure{At: 4, Machine: lo + k, Downtime: 60})
			}
		}
	}
	// Isolate the first job's racks by failing their uplinks, then heal;
	// ReplanOnFailure installs fresh rack sets for the affected jobs.
	isolate := func(o *Options, p *planner.Plan) {
		for _, r := range planRacks(p) {
			o.LinkFaults = append(o.LinkFaults,
				LinkFault{At: 3, Rack: r, Factor: 0},
				LinkFault{At: 45, Rack: r, Factor: 1})
		}
		o.ReplanOnFailure = true
	}
	// Attempt crashes frequent enough to blacklist machines.
	blacklist := func(o *Options, _ *planner.Plan) {
		o.TaskFailureProb = 0.2
	}
	cases := []scenario{
		{name: "corral-batch", sched: Corral, setup: none, check: ok, want: "88a25ce81ceadb3e"},
		{name: "localshuffle-batch", sched: LocalShuffle, setup: none, check: ok, want: "ce63341822b0e0c4"},
		{name: "shufflewatcher-batch", sched: ShuffleWatcher, setup: none, check: ok, want: "822f7251678adefc"},
		{name: "yarncs-batch", sched: YarnCS, setup: none, check: ok, want: "f3193461e6c7cd13"},
		{name: "corral-online", window: 60, sched: Corral, setup: none, check: ok, want: "e0abe13bb8e58671"},
		{name: "corral-adhoc-mix", window: 60, adhoc: true, sched: Corral, setup: none, check: mixed, want: "52a816fa58e101bf"},
		{name: "localshuffle-adhoc-mix", window: 60, adhoc: true, sched: LocalShuffle, setup: none, check: mixed, want: "0f1010124116761d"},
		{name: "corral-rack-loss", sched: Corral, setup: rackLoss, check: relaxed, want: "8d964b2150af46c2"},
		{name: "yarncs-rack-loss", sched: YarnCS, setup: rackLoss, check: relaxed, want: "8244adbe7bccda3b"},
		{name: "corral-isolate-replan", window: 30, sched: Corral, setup: isolate, check: replanned, want: "bf772d52a5e287d4"},
		{name: "corral-blacklist", sched: Corral, setup: blacklist, check: blacklisted, want: "8a53861711e5bc67"},
		{name: "shufflewatcher-blacklist", sched: ShuffleWatcher, setup: blacklist, check: blacklisted, want: "10e6451f34d51381"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jobs := lockJobs(c.window, c.adhoc)
			plan := lockPlan(t, topo, jobs)
			opts := Options{Cluster: topo, Scheduler: c.sched, BlockSize: 64e6, Seed: 21}
			if c.sched == Corral || c.sched == LocalShuffle {
				opts.Plan = plan
			}
			c.setup(&opts, plan)
			probe := newCountingProbe(topo.Machines(), topo.SlotsPerMachine)
			opts.Probe = probe
			rt, err := newRuntime(opts, jobs)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.check(rt, res, probe); err != nil {
				t.Fatal(err)
			}
			if n := probe.mon.ViolationCount(); n != 0 {
				t.Fatalf("%d invariant violations: %v", n, probe.mon.Violations())
			}
			if got := resultDigest(res, rt.rngSrc.draws); got != c.want {
				t.Errorf("digest %s, want %s (makespan %g, events %d, draws %d)",
					got, c.want, res.Makespan, res.Events, rt.rngSrc.draws)
			}
		})
	}
}
