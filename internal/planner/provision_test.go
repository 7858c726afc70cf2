package planner

// Differential tests for the provisioning fast path: the parallel /
// incremental / group-compressed engine must choose exactly the widths
// the legacy serial engine (provisionSerial, below) chooses — the same
// playbook that proves netsim's max-min allocator bit-identical to its
// per-flow oracle.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"corral/internal/job"
	"corral/internal/model"
	"corral/internal/pool"
	"corral/internal/topology"
	"corral/internal/workload"
)

// randomCommitments reserves a few random rack sets until random times.
func randomCommitments(rng *rand.Rand, R int, now float64) []Commitment {
	n := rng.Intn(4)
	cs := make([]Commitment, 0, n)
	for i := 0; i < n; i++ {
		racks := rng.Perm(R)[:rng.Intn(R)+1]
		cs = append(cs, Commitment{Racks: racks, Until: now + rng.Float64()*5000})
	}
	return cs
}

// TestProvisionFastMatchesSerial fuzzes the fast path against the legacy
// serial engine across seeded random workloads × {batch, online} ×
// {fresh plan, replan with commitments}, plus the scale suite's 2k-machine
// cell: both engines must choose the same widths vector, from which
// planTwoPhase materializes the plan with shared code.
func TestProvisionFastMatchesSerial(t *testing.T) {
	check := func(label string, in Input, initF []float64) {
		t.Helper()
		resp := responseFuncs(t, in)
		fast, slow := provision(in, resp, initF), provisionSerial(in, resp, initF)
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("%s: fast widths differ from serial reference\nfast:   %v\nserial: %v", label, fast, slow)
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, obj := range []Objective{MinimizeMakespan, MinimizeAvgCompletion} {
			rng := rand.New(rand.NewSource(seed))
			jobs := randomJobs(rng, rng.Intn(40)+1)
			in := Input{Cluster: testClusterModel(), Jobs: jobs, Alpha: -1, Objective: obj}
			check(fmt.Sprintf("seed %d %s", seed, obj), in, nil)
			plan, err := New(in)
			if err != nil {
				t.Fatal(err)
			}
			checkPlanInvariants(t, in, plan)

			// The inputs Replan hands planTwoPhase.
			now := rng.Float64() * 2000
			cs := randomCommitments(rng, in.Cluster.Racks, now)
			initF, err := commitmentAvailability(in.Cluster.Racks, now, cs)
			if err != nil {
				t.Fatal(err)
			}
			re := in
			re.Jobs = clampArrivals(in.Jobs, now)
			check(fmt.Sprintf("seed %d %s replan", seed, obj), re, initF)
		}
	}

	// The scale suite's 2k cell at seed 1 (experiments.scaleTopo and
	// scaleWorkload): 50 racks of 40 machines, a 200-job online W1 stream.
	topo := topology.Config{Racks: 50, MachinesPerRack: 40, SlotsPerMachine: 2, NICBandwidth: 10 * gbps, Oversubscription: 5}
	var planned []*job.Job
	for _, j := range workload.W1(workload.Config{Seed: 1, Jobs: 200, Scale: 1.0 / 8, TaskScale: 1.0 / 8, ArrivalWindow: 100}) {
		if !j.AdHoc {
			planned = append(planned, j)
		}
	}
	check("2k scale cell", Input{Cluster: model.FromTopology(topo), Jobs: planned, Alpha: -1, Objective: MinimizeAvgCompletion}, nil)
}

// TestProvisionWorkerCountInvariance pins the determinism contract: the
// worker pool size changes wall-clock only, never the plan.
func TestProvisionWorkerCountInvariance(t *testing.T) {
	defer pool.SetWorkers(0)
	rng := rand.New(rand.NewSource(7))
	in := Input{
		Cluster:   testClusterModel(),
		Jobs:      randomJobs(rng, 40),
		Alpha:     -1,
		Objective: MinimizeAvgCompletion,
	}
	pool.SetWorkers(1)
	one, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetWorkers(8)
	eight, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatal("plan differs between 1 and 8 provisioning workers")
	}
}

// TestProvisionSeedsDiffer is the anti-vacuity guard: if DeepEqual were
// trivially true (e.g. both engines returning empty plans), different
// seeds would agree too.
func TestProvisionSeedsDiffer(t *testing.T) {
	mk := func(seed int64) *Plan {
		rng := rand.New(rand.NewSource(seed))
		p, err := New(Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 20), Alpha: -1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if reflect.DeepEqual(mk(1), mk(2)) {
		t.Fatal("plans for different seeds are identical; differential test is vacuous")
	}
}

// TestBuildChainMatchesSerialWidening replays both widening rules side by
// side: the precomputed chain must visit exactly the widths the serial
// loop visits, in order.
func TestBuildChainMatchesSerialWidening(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 15), Alpha: -1}
	J, R := len(in.Jobs), in.Cluster.Racks
	resp := responseFuncs(t, in)

	chain := buildChain(resp, J, R)
	if want := J * (R - 1); len(chain) != want {
		t.Fatalf("chain length %d, want %d", len(chain), want)
	}
	rj := make([]int, J)
	for i := range rj {
		rj[i] = 1
	}
	for step, w := range chain {
		longest, longestLat := -1, -1.0
		for i := range rj {
			if rj[i] >= R {
				continue
			}
			if l := resp[i].At(rj[i]); l > longestLat {
				longest, longestLat = i, l
			}
		}
		if longest != w {
			t.Fatalf("step %d: chain widens job %d, serial rule widens %d", step, w, longest)
		}
		rj[w]++
	}
}

// TestEvaluatorSteadyStateZeroAlloc pins the per-candidate hot path
// (widen + objective) at zero allocations; corralvet's hotalloc check
// guards the same property statically via the //corral:hotpath markers.
func TestEvaluatorSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 30), Alpha: -1, Objective: MinimizeAvgCompletion}
	J, R := len(in.Jobs), in.Cluster.Racks
	resp := responseFuncs(t, in)
	chain := buildChain(resp, J, R)

	ev := newEvaluator(in, resp, groupsFromInitF(nil, R))
	rj := make([]int, J)
	for i := range rj {
		rj[i] = 1
	}
	ev.reset(rj)
	sink := ev.objective()
	step := 0
	allocs := testing.AllocsPerRun(100, func() {
		ev.widen(chain[step])
		sink += ev.objective()
		step++
	})
	if step >= len(chain) {
		t.Fatalf("alloc run exhausted the %d-step chain", len(chain))
	}
	if allocs != 0 {
		t.Fatalf("evaluator steady state allocates %.1f objects per candidate, want 0", allocs)
	}
	_ = sink
}

// responseFuncs tabulates the test input's response functions the way
// planTwoPhase does.
func responseFuncs(t *testing.T, in Input) []model.ResponseFunc {
	t.Helper()
	alpha := in.Alpha
	if alpha < 0 {
		alpha = in.Cluster.DefaultAlpha()
	}
	resp := make([]model.ResponseFunc, len(in.Jobs))
	for i, j := range in.Jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		resp[i] = in.Cluster.Response(j, alpha)
	}
	return resp
}

// provisionSerial is the pre-fast-path provisioning engine, kept verbatim
// as the differential reference: one scheduler, every candidate evaluated
// in chain order with a full prioritization run, best kept under strict
// `<`.
func provisionSerial(in Input, resp []model.ResponseFunc, initF []float64) []int {
	R := in.Cluster.Racks
	rj := make([]int, len(in.Jobs))
	for i := range rj {
		rj[i] = 1
	}
	sched := newScheduler(in, resp)
	sched.initF = initF

	bestObj := sched.run(rj).objective(in.Objective)
	bestRj := append([]int(nil), rj...)
	for {
		// Widen the longest job that is not yet cluster-wide.
		longest, longestLat := -1, -1.0
		for i := range rj {
			if rj[i] >= R {
				continue
			}
			if l := resp[i].At(rj[i]); l > longestLat {
				longest, longestLat = i, l
			}
		}
		if longest == -1 {
			break
		}
		rj[longest]++
		if obj := sched.run(rj).objective(in.Objective); obj < bestObj {
			bestObj = obj
			copy(bestRj, rj)
		}
	}
	return bestRj
}
