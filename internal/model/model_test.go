package model

import (
	"math"
	"testing"
	"testing/quick"

	"corral/internal/job"
)

const gbps = 1e9 / 8

// paperCluster mirrors the evaluation cluster: 7 racks x 30 machines,
// 10 Gbps NICs, 5:1 oversubscription, one task per machine (the paper's
// presentation assumption) unless overridden.
func paperCluster() Cluster {
	return Cluster{
		Racks:            7,
		MachinesPerRack:  30,
		SlotsPerMachine:  1,
		NICBandwidth:     10 * gbps,
		Oversubscription: 5,
	}
}

func shuffleHeavy() job.Profile {
	return job.Profile{
		InputBytes:   100e9,
		ShuffleBytes: 100e9,
		OutputBytes:  10e9,
		MapTasks:     30,
		ReduceTasks:  30,
		MapRate:      1e9,
		ReduceRate:   1e9,
	}
}

func TestWaves(t *testing.T) {
	c := paperCluster()
	// 30 tasks on 1 rack x 30 machines x 1 slot = 1 wave.
	if w := c.waves(30, 1); w != 1 {
		t.Fatalf("waves(30,1) = %g, want 1", w)
	}
	if w := c.waves(31, 1); w != 2 {
		t.Fatalf("waves(31,1) = %g, want 2", w)
	}
	if w := c.waves(31, 2); w != 1 {
		t.Fatalf("waves(31,2) = %g, want 1", w)
	}
	c.SlotsPerMachine = 8
	if w := c.waves(240, 1); w != 1 {
		t.Fatalf("waves(240,1) with 8 slots = %g, want 1", w)
	}
}

func TestMapLatency(t *testing.T) {
	c := paperCluster()
	p := shuffleHeavy()
	// One wave; per-task input = 100e9/30; rate 1e9 -> 3.333s.
	want := (100e9 / 30) / 1e9
	if got := c.MapLatency(p, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MapLatency = %g, want %g", got, want)
	}
	// Two waves when tasks double.
	p.MapTasks = 60
	p2 := p
	want2 := 2 * (100e9 / 60) / 1e9
	if got := c.MapLatency(p2, 1); math.Abs(got-want2) > 1e-9 {
		t.Fatalf("MapLatency 2 waves = %g, want %g", got, want2)
	}
}

func TestReduceLatencyMapOnly(t *testing.T) {
	c := paperCluster()
	p := shuffleHeavy()
	p.ReduceTasks = 0
	if got := c.ReduceLatency(p, 1); got != 0 {
		t.Fatalf("map-only ReduceLatency = %g, want 0", got)
	}
	if got := c.ShuffleLatency(p, 1); got != 0 {
		t.Fatalf("map-only ShuffleLatency = %g, want 0", got)
	}
}

func TestShuffleSingleRackUsesLocalOnly(t *testing.T) {
	c := paperCluster()
	p := shuffleHeavy()
	// r=1: no core component. Per machine: 100e9/30; local fraction
	// (k-1)/k at B - B/V = 8 Gbps... = 10*gbps*(4/5).
	perMachine := 100e9 / 30.0
	localBW := 10*gbps - 10*gbps/5
	want := perMachine * (29.0 / 30) / localBW
	if got := c.ShuffleLatency(p, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ShuffleLatency(1) = %g, want %g", got, want)
	}
}

func TestShuffleLatencyShrinksWithRacks(t *testing.T) {
	// §3.3's worked example: shuffle latency decreases with r for large
	// shuffles (approaching V/r · S/B).
	c := paperCluster()
	p := shuffleHeavy()
	p.ReduceTasks = 210 // keep one wave at every r... actually 7 waves at r=1
	prev := math.Inf(1)
	for r := 1; r <= 7; r++ {
		l := c.ShuffleLatency(p, r)
		if l > prev*(1+1e-9) {
			t.Fatalf("shuffle latency increased from %g to %g at r=%d", prev, l, r)
		}
		prev = l
	}
}

func TestShuffleCoreBoundMatchesFormula(t *testing.T) {
	c := paperCluster()
	p := shuffleHeavy()
	r := 7
	// Core-bound for a big shuffle: w * (DS/(r k))·((r-1)/r)/(B/V).
	perMachine := p.ShuffleBytes / (7.0 * 30)
	want := perMachine * (6.0 / 7) / (10 * gbps / 5)
	got := c.ShuffleLatency(p, r)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ShuffleLatency(7) = %g, want %g", got, want)
	}
}

func TestV1NoOversubscription(t *testing.T) {
	c := paperCluster()
	c.Oversubscription = 1
	p := shuffleHeavy()
	got := c.ShuffleLatency(p, 2)
	if math.IsInf(got, 1) || math.IsNaN(got) || got <= 0 {
		t.Fatalf("V=1 shuffle latency = %g, want finite positive", got)
	}
}

func TestStageLatencyIsSumOfPhases(t *testing.T) {
	c := paperCluster()
	p := shuffleHeavy()
	for r := 1; r <= 7; r++ {
		want := c.MapLatency(p, r) + c.ShuffleLatency(p, r) + c.ReduceLatency(p, r)
		//corralvet:ok floateq exact identity intended: StageLatency is this sum, evaluated in the same order
		if got := c.StageLatency(p, r); got != want {
			t.Fatalf("StageLatency(%d) = %g, want %g", r, got, want)
		}
	}
}

func TestJobLatencyDAGUsesCriticalPath(t *testing.T) {
	c := paperCluster()
	small := shuffleHeavy()
	small.InputBytes, small.ShuffleBytes, small.OutputBytes = 1e9, 1e9, 1e8
	big := shuffleHeavy()
	j := &job.Job{ID: 1, Stages: []job.Stage{
		{Name: "src", Profile: small},
		{Name: "light", Profile: small, Upstream: []int{0}},
		{Name: "heavy", Profile: big, Upstream: []int{0}},
		{Name: "sink", Profile: small, Upstream: []int{1, 2}},
	}}
	got := c.JobLatency(j, 2)
	// Sink stage additionally pays the replicated-write term.
	want := c.StageLatency(small, 2) + c.StageLatency(big, 2) +
		c.StageLatency(small, 2) + c.WriteLatency(small, 2)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("DAG latency = %g, want %g (path through heavy stage)", got, want)
	}
	// And it must exceed any single-branch underestimate.
	if got <= c.StageLatency(big, 2) {
		t.Fatal("DAG latency not accumulating the path")
	}
}

func TestWriteLatency(t *testing.T) {
	c := paperCluster()
	p := shuffleHeavy()
	// One wave of 30 reducers, per-task output 10e9/30, core share B/V.
	want := (10e9 / 30.0) / (10 * gbps / 5)
	if got := c.WriteLatency(p, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("WriteLatency = %g, want %g", got, want)
	}
	// Disabled with replication 1.
	c.OutputReplicas = 1
	if got := c.WriteLatency(p, 1); got != 0 {
		t.Fatalf("WriteLatency with 1 replica = %g, want 0", got)
	}
	c.OutputReplicas = 0
	pm := p
	pm.ReduceTasks = 0
	if got := c.WriteLatency(pm, 1); got != 0 {
		t.Fatalf("map-only WriteLatency = %g, want 0", got)
	}
	// Single-stage job latency includes the write term.
	j := job.MapReduce(1, "x", p)
	if got := c.JobLatency(j, 1); math.Abs(got-(c.StageLatency(p, 1)+c.WriteLatency(p, 1))) > 1e-9 {
		t.Fatalf("JobLatency missing write term: %g", got)
	}
}

func TestResponsePenalty(t *testing.T) {
	c := paperCluster()
	j := job.MapReduce(1, "x", shuffleHeavy())
	alpha := c.DefaultAlpha()
	plain := c.Response(j, 0)
	pen := c.Response(j, alpha)
	if plain.Racks() != 7 || pen.Racks() != 7 {
		t.Fatalf("response domain = %d, want 7", plain.Racks())
	}
	for r := 1; r <= 7; r++ {
		wantDelta := alpha * 100e9 / float64(r)
		if math.Abs((pen.At(r)-plain.At(r))-wantDelta) > 1e-9 {
			t.Fatalf("penalty at r=%d = %g, want %g", r, pen.At(r)-plain.At(r), wantDelta)
		}
	}
	// Penalty decreases with r, favoring spreading data.
	if pen.At(1)-plain.At(1) <= pen.At(7)-plain.At(7) {
		t.Fatal("penalty should shrink as racks grow")
	}
}

func TestDefaultAlpha(t *testing.T) {
	c := paperCluster()
	// Rack uplink = 30 * 10Gbps / 5 = 60 Gbps.
	want := 1 / (60 * gbps)
	if got := c.DefaultAlpha(); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("DefaultAlpha = %g, want %g", got, want)
	}
}

func TestArgMin(t *testing.T) {
	f := ResponseFunc{5, 3, 3, 9}
	if got := f.ArgMin(); got != 2 {
		t.Fatalf("ArgMin = %d, want 2 (first minimum)", got)
	}
}

// Property: latencies are finite, positive for non-trivial jobs, and the
// penalized response exceeds the raw response.
func TestQuickLatencySanity(t *testing.T) {
	c := paperCluster()
	f := func(in, sh, out uint32, nm, nr uint8) bool {
		p := job.Profile{
			InputBytes:   float64(in%1000+1) * 1e8,
			ShuffleBytes: float64(sh%1000) * 1e8,
			OutputBytes:  float64(out%1000) * 1e8,
			MapTasks:     int(nm%200) + 1,
			ReduceTasks:  int(nr % 200),
			MapRate:      1e9,
			ReduceRate:   1e9,
		}
		if p.Validate() != nil {
			return true
		}
		j := job.MapReduce(1, "q", p)
		raw := c.Response(j, 0)
		pen := c.Response(j, c.DefaultAlpha())
		for r := 1; r <= c.Racks; r++ {
			lr := raw.At(r)
			if math.IsNaN(lr) || math.IsInf(lr, 0) || lr <= 0 {
				return false
			}
			if pen.At(r) < lr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for jobs with a single wave at every allocation, latency is
// non-increasing for r >= 2. (The step from r=1 to r=2 may legitimately
// increase latency — the cross-core term (r−1)/r² peaks at r=2 — which is
// exactly the case §4.2 notes: "if the latency of the longest job
// increases when its allocation is increased by one rack, it will continue
// to be the longest and its allocation will be increased again".)
func TestQuickMonotoneShuffleForOneWaveJobs(t *testing.T) {
	c := paperCluster()
	f := func(sh uint32) bool {
		p := job.Profile{
			InputBytes:   1e9,
			ShuffleBytes: float64(sh%10000+1) * 1e7,
			OutputBytes:  1e9,
			MapTasks:     20, // < 30 => single wave at any r
			ReduceTasks:  20,
			MapRate:      1e9,
			ReduceRate:   1e9,
		}
		prev := math.Inf(1)
		for r := 2; r <= c.Racks; r++ {
			l := c.StageLatency(p, r)
			if l > prev*(1+1e-12) {
				return false
			}
			prev = l
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleCorePeaksAtTwoRacks(t *testing.T) {
	// Documents the non-monotonicity: with a 5:1 oversubscription, moving a
	// shuffle-heavy one-wave job from 1 to 2 racks makes it slower.
	c := paperCluster()
	p := shuffleHeavy()
	p.MapTasks, p.ReduceTasks = 20, 20
	if c.StageLatency(p, 2) <= c.StageLatency(p, 1) {
		t.Fatalf("expected latency bump at r=2: L(1)=%g L(2)=%g",
			c.StageLatency(p, 1), c.StageLatency(p, 2))
	}
}

func TestComputeWorkBoundFloorsBushyDAGs(t *testing.T) {
	c := paperCluster()
	p := shuffleHeavy()
	p.ShuffleBytes, p.OutputBytes = 0, 0
	p.ReduceTasks = 0
	// Eight parallel scan branches feeding one sink: the critical path is
	// two stages, but eight branches' work must fit in the slots.
	stages := []job.Stage{}
	for i := 0; i < 8; i++ {
		stages = append(stages, job.Stage{Name: "scan", Profile: p})
	}
	sinkProfile := p
	stages = append(stages, job.Stage{
		Name: "sink", Profile: sinkProfile,
		Upstream: []int{0, 1, 2, 3, 4, 5, 6, 7},
	})
	j := &job.Job{ID: 1, Stages: stages}
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	// On one rack (30 slots), total map work = 9 stages x 100 GB / 1 GB/s
	// = 900 task-seconds over 30 slots = 30 s; the two-stage critical path
	// alone is only ~6.7 s.
	got := c.JobLatency(j, 1)
	if got < 29 {
		t.Fatalf("bushy DAG latency = %g, want >= work bound ~30", got)
	}
	// With all racks the work bound shrinks sevenfold.
	if wide := c.JobLatency(j, 7); wide >= got {
		t.Fatalf("widening did not help the bushy DAG: %g -> %g", got, wide)
	}
}
