package planner

// Differential tests for the provisioning fast path: the parallel /
// incremental / group-compressed engine must choose exactly the widths
// the legacy serial engine (provisionSerial, below) chooses — the same
// playbook that proves netsim's max-min allocator bit-identical to its
// per-flow oracle.

import (
	"fmt"
	"math"
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

	check("2k scale cell", scaleCellInput(2000), nil)
}

// scaleCellInput is the planner input of the scale suite's cell at seed 1
// (experiments.scaleTopo and scaleWorkload): racks of 40 machines and an
// online W1 stream of 160 + machines/50 jobs — 50 racks and 200 jobs at
// 2k, 250 racks and 360 jobs at 10k.
func scaleCellInput(machines int) Input {
	topo := topology.Config{Racks: machines / 40, MachinesPerRack: 40, SlotsPerMachine: 2, NICBandwidth: 10 * gbps, Oversubscription: 5}
	var planned []*job.Job
	for _, j := range workload.W1(workload.Config{Seed: 1, Jobs: 160 + machines/50, Scale: 1.0 / 8, TaskScale: 1.0 / 8, ArrivalWindow: float64(machines) / 20}) {
		if !j.AdHoc {
			planned = append(planned, j)
		}
	}
	return Input{Cluster: model.FromTopology(topo), Jobs: planned, Alpha: -1, Objective: MinimizeAvgCompletion}
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
// side: the heap-ordered chain must visit exactly the widths the serial
// loop's linear scan (buildChainLinear) visits, in order — on seeded
// random workloads, the 10k scale cell, forced equal-estimate ties and
// non-monotone response tables that hold NaN, −1 and ±Inf.
func TestBuildChainMatchesSerialWidening(t *testing.T) {
	check := func(label string, resp []model.ResponseFunc, R int) {
		t.Helper()
		got, want := buildChain(resp, len(resp), R), buildChainLinear(resp, len(resp), R)
		if len(got) != len(want) {
			t.Fatalf("%s: chain length %d, linear scan %d", label, len(got), len(want))
		}
		for step := range want {
			if got[step] != want[step] {
				t.Fatalf("%s: step %d: chain widens job %d, linear scan widens %d", label, step, got[step], want[step])
			}
		}
	}

	random := func(seed int64, n int) {
		t.Helper()
		in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rand.New(rand.NewSource(seed)), n), Alpha: -1}
		resp := responseFuncs(t, in)
		if J, R := len(in.Jobs), in.Cluster.Racks; len(buildChain(resp, J, R)) != J*(R-1) {
			t.Fatalf("seed %d, %d jobs: chain length %d, want %d", seed, n, len(buildChain(resp, J, R)), J*(R-1))
		}
		check(fmt.Sprintf("seed %d, %d jobs", seed, n), resp, in.Cluster.Racks)
	}
	random(3, 15)
	for seed := int64(1); seed <= 8; seed++ {
		random(seed, 5*int(seed))
	}

	in := scaleCellInput(10000)
	check("10k scale cell", responseFuncs(t, in), in.Cluster.Racks)

	// Identical jobs: every step is an equal-estimate tie.
	same := make([]*job.Job, 25)
	for i := range same {
		same[i] = mkJob(i+1, 100, 50, 10, 40, 10)
	}
	in = Input{Cluster: testClusterModel(), Jobs: same, Alpha: -1}
	check("equal estimates", responseFuncs(t, in), in.Cluster.Racks)

	// Hand-made tables drawn from a small value set, so ties, rises and
	// non-qualifying estimates (NaN, −1, below −1) all occur mid-chain.
	vals := []float64{math.NaN(), math.Inf(-1), -3, -1, math.Copysign(0, -1), 0, 1, 2, 2, 5, math.Inf(1)}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		J, R := rng.Intn(30)+1, rng.Intn(9)+1
		resp := make([]model.ResponseFunc, J)
		for i := range resp {
			resp[i] = make(model.ResponseFunc, R)
			for r := range resp[i] {
				resp[i][r] = vals[rng.Intn(len(vals))]
			}
		}
		check(fmt.Sprintf("table seed %d", seed), resp, R)
	}
}

// buildChainLinear is the legacy widening rule, verbatim from the serial
// loop: scan every job for the longest estimate strictly above −1 among
// those not yet cluster-wide, first index on ties.
func buildChainLinear(resp []model.ResponseFunc, J, R int) []int {
	chain := make([]int, 0, J*(R-1))
	rj := make([]int, J)
	for i := range rj {
		rj[i] = 1
	}
	for {
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
		chain = append(chain, longest)
	}
	return chain
}

// checkCheckpointedObjectives is checkChainObjectives over in's own
// response functions.
func checkCheckpointedObjectives(t *testing.T, label string, in Input, initF []float64) (evalWork, int) {
	t.Helper()
	return checkChainObjectives(t, label, in, responseFuncs(t, in), initF)
}

// checkChainObjectives walks the whole widening chain in three blocks, as
// scoreChain does, twice. Unbounded, every checkpointed objective must
// equal, bit for bit, a pass from position 0 over the same widths on a
// second evaluator. With scoreChain's running bound — candidate 0's
// objective, tightened within each block — every candidate the walk does
// not prune must equal that pass too, every pruned candidate's full-pass
// objective must lie strictly above the bound it was pruned against and
// so above the chain minimum, and the walk's argmin must be the full
// passes' earliest minimum. It returns the bounded walk's work counters
// and the number of candidates whose objective ties the chain minimum.
func checkChainObjectives(t *testing.T, label string, in Input, resp []model.ResponseFunc, initF []float64) (evalWork, int) {
	t.Helper()
	J, R := len(in.Jobs), in.Cluster.Racks
	chain := buildChain(resp, J, R)
	initGroups := groupsFromInitF(initF, R)
	ones := make([]int, J)
	for i := range ones {
		ones[i] = 1
	}
	C := len(chain) + 1
	full := make([]float64, C)
	ref := newEvaluator(in, resp, initGroups)
	ref.reset(ones)
	for c := range full {
		if c > 0 {
			ref.widen(chain[c-1])
		}
		full[c] = ref.objective(0, math.Inf(1))
	}
	argmin := func(objs []float64) int {
		best := 0
		for c := 1; c < len(objs); c++ {
			if objs[c] < objs[best] {
				best = c
			}
		}
		return best
	}
	bestFull := argmin(full)
	ties := 0
	for _, v := range full {
		//corralvet:ok floateq exact identity intended: counts candidates bit-equal to the minimum, the ties the earliest-wins rule decides
		if v == full[bestFull] {
			ties++
		}
	}

	var work evalWork
	for _, bounded := range []bool{false, true} {
		ev := newEvaluator(in, resp, initGroups)
		objs := make([]float64, C)
		for b := 0; b < 3; b++ {
			lo, hi := b*C/3, (b+1)*C/3
			rj := append([]int(nil), ones...)
			for c := 0; c < lo; c++ {
				rj[chain[c]]++
			}
			bound := math.Inf(1)
			if bounded && b > 0 {
				bound = full[0]
			}
			for c := lo; c < hi; c++ {
				before := ev.work
				if c == lo {
					ev.reset(rj)
					objs[c] = ev.objective(0, bound)
				} else {
					objs[c] = ev.objective(ev.widen(chain[c-1]), bound)
				}
				got, want := objs[c], full[c]
				if ev.work.prunedShared+ev.work.prunedPartial > before.prunedShared+before.prunedPartial {
					if !bounded {
						t.Fatalf("%s: candidate %d: pruned under an infinite bound", label, c)
					}
					// The bound is an earlier candidate's objective, so
					// above it is above the chain minimum too.
					if !math.IsInf(got, 1) || !(want > bound) || !(want > full[bestFull]) {
						t.Fatalf("%s: candidate %d: pruned to %v with full-pass objective %v, bound %v, chain minimum %v", label, c, got, want, bound, full[bestFull])
					}
				} else if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: candidate %d (bounded %v): checkpointed objective %v, full pass %v", label, c, bounded, got, want)
				}
				if bounded && got < bound {
					bound = got
				}
				if c > 0 && c%97 == 0 { // spot-check the incremental order against a full sort
					sorted := newEvaluator(in, resp, initGroups)
					sorted.reset(ev.rj)
					if !reflect.DeepEqual(ev.order, sorted.order) || !reflect.DeepEqual(ev.posOf, sorted.posOf) {
						t.Fatalf("%s: candidate %d: incremental order %v (index %v), full sort %v (index %v)", label, c, ev.order, ev.posOf, sorted.order, sorted.posOf)
					}
				}
			}
		}
		if best := argmin(objs); best != bestFull {
			t.Fatalf("%s (bounded %v): walk chooses candidate %d (%v), full passes candidate %d (%v)", label, bounded, best, objs[best], bestFull, full[bestFull])
		}
		work = ev.work
	}
	return work, ties
}

// TestProvisionCheckpointMatchesFullPass pins facts 3 and 4 of
// provision.go: for every candidate of the chain, the objective resumed
// from a checkpoint equals the pass from position 0, and the bounded walk
// prunes only candidates that cannot win, across batch × online × {fresh
// plan, replan with commitments}, with J below, at multiples of and off
// multiples of ckStride, and on the 2k scale cell. Two planted cases
// follow: identical jobs, where many candidates tie at the minimum and
// the earliest must win, and response tables with +Inf entries.
func TestProvisionCheckpointMatchesFullPass(t *testing.T) {
	var work evalWork
	add := func(w evalWork, _ int) { work.add(w) }
	sizes := []int{1, 5, ckStride - 1, ckStride, ckStride + 1, 2 * ckStride, 3*ckStride + 7}
	for si, J := range sizes {
		for _, obj := range []Objective{MinimizeMakespan, MinimizeAvgCompletion} {
			rng := rand.New(rand.NewSource(int64(si + 1)))
			in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, J), Alpha: -1, Objective: obj}
			add(checkCheckpointedObjectives(t, fmt.Sprintf("J=%d %s", J, obj), in, nil))

			now := rng.Float64() * 2000
			initF, err := commitmentAvailability(in.Cluster.Racks, now, randomCommitments(rng, in.Cluster.Racks, now))
			if err != nil {
				t.Fatal(err)
			}
			re := in
			re.Jobs = clampArrivals(in.Jobs, now)
			add(checkCheckpointedObjectives(t, fmt.Sprintf("J=%d %s replan", J, obj), re, initF))
		}
	}
	add(checkCheckpointedObjectives(t, "2k scale cell", scaleCellInput(2000), nil))

	for _, obj := range []Objective{MinimizeMakespan, MinimizeAvgCompletion} {
		same := make([]*job.Job, 3*ckStride+5)
		for i := range same {
			same[i] = mkJob(i+1, 100, 50, 10, 40, 10)
		}
		in := Input{Cluster: testClusterModel(), Jobs: same, Alpha: -1, Objective: obj}
		add(checkCheckpointedObjectives(t, fmt.Sprintf("identical jobs %s", obj), in, nil))

		// Perfect speedup, L(r) = R/r on R = 2J racks: the makespan ties
		// its minimum whenever every job has the same power-of-two width
		// ≥ 2, so tied candidates sit in several blocks and the first
		// must win.
		for _, J := range []int{2 * ckStride, 3*ckStride + 5} {
			c := testClusterModel()
			c.Racks = 2 * J
			jobs := make([]*job.Job, J)
			resp := make([]model.ResponseFunc, J)
			for i := range jobs {
				jobs[i] = mkJob(i+1, 100, 50, 10, 40, 10)
				resp[i] = make(model.ResponseFunc, c.Racks)
				for r := range resp[i] {
					resp[i][r] = float64(c.Racks) / float64(r+1)
				}
			}
			w, ties := checkChainObjectives(t, fmt.Sprintf("speedup table J=%d %s", J, obj), Input{Cluster: c, Jobs: jobs, Objective: obj}, resp, nil)
			add(w, ties)
			if obj == MinimizeMakespan && ties < 2 {
				t.Fatalf("speedup table J=%d: %d candidates at the minimum, want ties", J, ties)
			}
		}

		// +Inf estimates: some jobs cannot finish at narrow widths, so the
		// chain opens on infinite objectives and the bound starts at +Inf.
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 2*ckStride+rng.Intn(2*ckStride)), Alpha: -1, Objective: obj}
			resp := responseFuncs(t, in)
			resp[0][0] = math.Inf(1) // candidate 0 scores +Inf
			for _, f := range resp {
				if rng.Intn(4) == 0 {
					for r := range f[:rng.Intn(len(f))] {
						f[r] = math.Inf(1)
					}
				}
			}
			add(checkChainObjectives(t, fmt.Sprintf("+Inf entries seed %d %s", seed, obj), in, resp, nil))
		}
	}
	if work.prunedShared == 0 || work.prunedPartial == 0 {
		t.Fatalf("bounded walks pruned %d candidates in a shared prefix and %d after a partial pass; want both paths taken", work.prunedShared, work.prunedPartial)
	}
}

// FuzzProvisionMatchesFullPass is TestProvisionCheckpointMatchesFullPass
// over fuzzed seeds, job counts, objectives and commitments. Plain go test
// runs the seed corpus; -fuzz searches further.
func FuzzProvisionMatchesFullPass(f *testing.F) {
	f.Add(int64(1), uint8(5), false, false)
	f.Add(int64(2), uint8(ckStride), true, false)
	f.Add(int64(3), uint8(2*ckStride+3), true, true)
	f.Add(int64(4), uint8(40), false, true)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, online, replan bool) {
		rng := rand.New(rand.NewSource(seed))
		in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, int(n)%64+1), Alpha: -1}
		if online {
			in.Objective = MinimizeAvgCompletion
		}
		var initF []float64
		if replan {
			now := rng.Float64() * 2000
			var err error
			initF, err = commitmentAvailability(in.Cluster.Racks, now, randomCommitments(rng, in.Cluster.Racks, now))
			if err != nil {
				t.Fatal(err)
			}
			in.Jobs = clampArrivals(in.Jobs, now)
		}
		checkCheckpointedObjectives(t, fmt.Sprintf("seed %d n %d", seed, n), in, initF)
	})
}

// TestEvaluatorSteadyStateZeroAlloc pins the per-candidate hot path
// (widen + objective) at zero allocations under a finite bound that
// prunes both ways — inside a pruned prefix and after a partial pass;
// corralvet's hotalloc check guards the same property statically via the
// //corral:hotpath markers.
func TestEvaluatorSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := Input{Cluster: testClusterModel(), Jobs: randomJobs(rng, 3*ckStride), Alpha: -1, Objective: MinimizeAvgCompletion}
	J, R := len(in.Jobs), in.Cluster.Racks
	resp := responseFuncs(t, in)
	chain := buildChain(resp, J, R)

	ev := newEvaluator(in, resp, groupsFromInitF(nil, R))
	rj := make([]int, J)
	for i := range rj {
		rj[i] = 1
	}
	// The bound is the chain's minimum objective, so every candidate
	// strictly above it can be pruned.
	ev.reset(rj)
	bound := ev.objective(0, math.Inf(1))
	for _, w := range chain {
		bound = min(bound, ev.objective(ev.widen(w), math.Inf(1)))
	}
	ev.reset(rj)
	ev.work = evalWork{}
	sink := ev.objective(0, bound)
	step := 0
	allocs := testing.AllocsPerRun(100, func() {
		sink += ev.objective(ev.widen(chain[step]), bound)
		step++
	})
	_ = sink
	if step >= len(chain) {
		t.Fatalf("alloc run exhausted the %d-step chain", len(chain))
	}
	if allocs != 0 {
		t.Fatalf("evaluator steady state allocates %.1f objects per candidate, want 0", allocs)
	}
	if ev.work.prunedShared == 0 || ev.work.prunedPartial == 0 {
		t.Fatalf("alloc run pruned %d candidates in a shared prefix and %d after a partial pass; want both paths taken", ev.work.prunedShared, ev.work.prunedPartial)
	}
}

// TestProvisionPrunesMostWork is the anti-vacuity guard for fact 4 of
// provision.go, by count rather than wall clock: on the 2k scale cell
// the bounded walk must prune at least 90% of the candidates and walk at
// most a tenth of the order positions the same walk takes unbounded. The
// worker bound is fixed because the block count moves the counts.
func TestProvisionPrunesMostWork(t *testing.T) {
	defer pool.SetWorkers(0)
	pool.SetWorkers(2)
	in := scaleCellInput(2000)
	resp := responseFuncs(t, in)
	J, R := len(in.Jobs), in.Cluster.Racks
	chain := buildChain(resp, J, R)
	_, work := scoreChain(in, resp, nil, chain)

	ev := newEvaluator(in, resp, groupsFromInitF(nil, R))
	rj := make([]int, J)
	for i := range rj {
		rj[i] = 1
	}
	ev.reset(rj)
	ev.objective(0, math.Inf(1))
	for _, w := range chain {
		ev.objective(ev.widen(w), math.Inf(1))
	}

	C := len(chain) + 1
	pruned := work.prunedShared + work.prunedPartial
	t.Logf("%d of %d candidates pruned (%d in a shared prefix); %d positions walked, %d unbounded",
		pruned, C, work.prunedShared, work.walked, ev.work.walked)
	if 10*pruned < 9*C {
		t.Fatalf("pruned %d of %d candidates, want at least 90%%", pruned, C)
	}
	if 10*work.walked > ev.work.walked {
		t.Fatalf("walked %d order positions, want at most a tenth of the unbounded walk's %d", work.walked, ev.work.walked)
	}
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
