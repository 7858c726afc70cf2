// Package model implements the latency response functions L_j(r) of §4.3:
// fast analytic estimates of a job's completion time as a function of the
// number of racks r allocated to it. The planner uses these as proxies for
// real latency; they are deliberately simple (the paper stresses they
// "need not be highly accurate").
//
// The MapReduce model sums three sequential stage latencies:
//
//	L_j(r) = l_map(r) + l_shuffle(r) + l_reduce(r)
//
// with wave counts w(r) = ⌈N / (r·k·s)⌉ for k machines per rack and s
// simultaneous tasks per machine (the paper presents s = 1 and notes the
// extension to s > 1), and a shuffle bounded by the slower of the
// cross-core and in-rack transfer (§4.3 (a)/(b)).
//
// General DAGs are handled by modelling every stage as a MapReduce job and
// summing along the DAG's critical path. §4.5's data-imbalance penalty
// α·D^I/r is available via Response.
//
// Determinism obligations: every response function is a pure function of
// the job tuple and cluster shape — closed-form arithmetic with no
// randomness, time or iteration-order dependence.
package model

import (
	"math"

	"corral/internal/job"
	"corral/internal/topology"
)

// Cluster carries the topology parameters the model needs.
type Cluster struct {
	Racks            int
	MachinesPerRack  int     // k
	SlotsPerMachine  int     // s: simultaneous tasks per machine
	NICBandwidth     float64 // B, bytes/sec
	Oversubscription float64 // V (> 1 for an oversubscribed core)
}

// FromTopology extracts model parameters from a topology config.
func FromTopology(cfg topology.Config) Cluster {
	return Cluster{
		Racks:            cfg.Racks,
		MachinesPerRack:  cfg.MachinesPerRack,
		SlotsPerMachine:  cfg.SlotsPerMachine,
		NICBandwidth:     cfg.NICBandwidth,
		Oversubscription: cfg.Oversubscription,
	}
}

// waves returns ⌈tasks / (r·k·s)⌉, the number of sequential task waves.
func (c Cluster) waves(tasks, r int) float64 {
	capac := r * c.MachinesPerRack * c.SlotsPerMachine
	return math.Ceil(float64(tasks) / float64(capac))
}

// MapLatency returns l_map(r) = w_map(r) · (D^I/N^M)/B_M.
func (c Cluster) MapLatency(p job.Profile, r int) float64 {
	perTask := p.InputBytes / float64(p.MapTasks)
	return c.waves(p.MapTasks, r) * perTask / p.MapRate
}

// ReduceLatency returns l_reduce(r) = w_reduce(r) · (D^O/N^R)/B_R.
func (c Cluster) ReduceLatency(p job.Profile, r int) float64 {
	if p.ReduceTasks == 0 {
		return 0
	}
	perTask := p.OutputBytes / float64(p.ReduceTasks)
	return c.waves(p.ReduceTasks, r) * perTask / p.ReduceRate
}

// WriteLatency returns the replicated-output-write extension for terminal
// stages. The paper's §4.3 model omits writes; this term keeps the
// planner's estimates consistent with an HDFS-like execution layer (see
// DESIGN.md). Outputs are written with HDFS's 3 replicas, so each reduce
// task pushes one copy of its output across the core at the machine's
// core share B/V (the in-rack forwarding copy overlaps and is not the
// bottleneck), adding w_reduce·(D^O/N^R)/(B/V) to the reduce latency.
func (c Cluster) WriteLatency(p job.Profile, r int) float64 {
	if p.ReduceTasks == 0 || p.OutputBytes <= 0 {
		return 0
	}
	perTask := p.OutputBytes / float64(p.ReduceTasks)
	return c.waves(p.ReduceTasks, r) * perTask / (c.NICBandwidth / c.Oversubscription)
}

// ShuffleLatency returns l_shuffle(r) = w_reduce(r) · max(l_core, l_local).
//
// Per §4.3, with per-machine shuffle share D^S/(r·k):
//
//	D_core(r)  = D^S/(r·k) · (r−1)/r   (0 when r = 1)
//	l_core     = D_core / (B/V)
//	D_local(r) = D^S/(r·k) · 1/r, of which 1/k stays on-machine
//	l_local    = D_local · (k−1)/k / (B − B/V)
//
// With s simultaneous tasks per machine the NIC is shared, which the
// original waves/bandwidth extension absorbs: per-machine data volumes are
// unchanged, so no further adjustment is needed.
func (c Cluster) ShuffleLatency(p job.Profile, r int) float64 {
	if p.ReduceTasks == 0 || p.ShuffleBytes == 0 {
		return 0
	}
	k := float64(c.MachinesPerRack)
	perMachine := p.ShuffleBytes / (float64(r) * k)

	var lcore float64
	if r > 1 {
		dcore := perMachine * float64(r-1) / float64(r)
		lcore = dcore / (c.NICBandwidth / c.Oversubscription)
	}

	dlocal := perMachine / float64(r)
	localBW := c.NICBandwidth - c.NICBandwidth/c.Oversubscription
	if localBW <= 0 {
		// No oversubscription (V = 1): the core is as fast as the NICs and
		// in-rack transfers get the full NIC.
		localBW = c.NICBandwidth
	}
	llocal := dlocal * (k - 1) / k / localBW

	return c.waves(p.ReduceTasks, r) * math.Max(lcore, llocal)
}

// StageLatency returns the full MapReduce latency of one stage profile on
// r racks.
func (c Cluster) StageLatency(p job.Profile, r int) float64 {
	return c.MapLatency(p, r) + c.ShuffleLatency(p, r) + c.ReduceLatency(p, r)
}

// JobLatency returns L_j(r): the stage latency for single-stage jobs, or
// the critical-path sum for DAGs, in both cases adding the write extension
// for terminal (sink) stages. The critical path is recomputed per r
// because stage weights depend on r.
func (c Cluster) JobLatency(j *job.Job, r int) float64 {
	if !j.IsDAG() {
		p := j.Stages[0].Profile
		return c.StageLatency(p, r) + c.WriteLatency(p, r)
	}
	consumed := make([]bool, len(j.Stages))
	for _, s := range j.Stages {
		for _, u := range s.Upstream {
			consumed[u] = true
		}
	}
	weight := func(s int) float64 {
		w := c.StageLatency(j.Stages[s].Profile, r)
		if !consumed[s] {
			w += c.WriteLatency(j.Stages[s].Profile, r)
		}
		return w
	}
	total := 0.0
	for _, s := range j.CriticalPath(weight) {
		total += weight(s)
	}
	// Parallel DAG branches off the critical path still occupy slots: the
	// allocation must also cover the job's total compute work. Without
	// this bound the planner under-provisions bushy DAGs (e.g. multi-scan
	// TPC-H queries) whose critical path is short but whose aggregate
	// task demand is large.
	if wb := c.computeWorkBound(j, r); wb > total {
		total = wb
	}
	return total
}

// computeWorkBound returns total task-seconds across all stages divided by
// the allocation's slot count — a lower bound on any schedule's length.
func (c Cluster) computeWorkBound(j *job.Job, r int) float64 {
	work := 0.0
	for _, s := range j.Stages {
		p := s.Profile
		work += p.InputBytes / p.MapRate
		if p.ReduceTasks > 0 {
			work += p.OutputBytes / p.ReduceRate
		}
	}
	return work / float64(r*c.MachinesPerRack*c.SlotsPerMachine)
}

// ResponseFunc tabulates L'_j(r) for r = 1..R; index 0 holds L'(1).
type ResponseFunc []float64

// At returns L'(r). r must be in [1, len].
func (f ResponseFunc) At(r int) float64 { return f[r-1] }

// Racks returns R, the domain size.
func (f ResponseFunc) Racks() int { return len(f) }

// ArgMin returns the r minimizing L'(r) (smallest r on ties).
func (f ResponseFunc) ArgMin() int {
	best := 1
	for r := 2; r <= len(f); r++ {
		if f[r-1] < f[best-1] {
			best = r
		}
	}
	return best
}

// Response tabulates the penalized response function
// L'_j(r) = L_j(r) + α·D^I_j/r for r = 1..Racks (§4.5). α = 0 disables the
// data-imbalance penalty; DefaultAlpha gives the paper's choice.
func (c Cluster) Response(j *job.Job, alpha float64) ResponseFunc {
	out := make(ResponseFunc, c.Racks)
	in := j.InputBytes()
	for r := 1; r <= c.Racks; r++ {
		out[r-1] = c.JobLatency(j, r) + alpha*in/float64(r)
	}
	return out
}

// DefaultAlpha is the paper's tradeoff coefficient: the inverse of the
// bandwidth between an individual rack and the core, so the penalty term
// approximates the time to upload the job's per-rack input share (§4.5).
func (c Cluster) DefaultAlpha() float64 {
	rackUplink := float64(c.MachinesPerRack) * c.NICBandwidth / c.Oversubscription
	return 1 / rackUplink
}
