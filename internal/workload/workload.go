// Package workload generates the four evaluation workloads of §6.1 at a
// configurable scale, plus the recurring-job telemetry used in §2:
//
//   - W1: Quantcast-derived — a mix of small (≤50 tasks), medium (≤500)
//     and large (≥1000 tasks) MapReduce jobs with selectivities between
//     4:1 and 1:4.
//   - W2: SWIM/Yahoo-derived — 400 jobs, highly skewed: ~90% tiny jobs
//     (≤200 MB input, ≤75 MB shuffle) plus two ~5.5 TB giants whose
//     shuffle is ~1.8× their input.
//   - W3: Microsoft Cosmos-derived — 200 jobs matching Table 1's
//     percentiles (tasks 180/2060, input 7.1/162.3 GB, shuffle 6/71.5 GB
//     at the 50th/95th).
//   - TPC-H: 15 Hive-style DAG queries over a shared database, each a
//     small tree of MapReduce stages spending ~20% of its time in shuffle.
//
// Byte sizes are scaled by Config.Scale so full experiments stay fast in
// simulation; ratios (selectivity, skew, shuffle/input) are preserved,
// which is what the reproduced trends depend on.
//
// Determinism obligations: each generator is a pure function of
// (Config, Config.Seed) — all sampling draws from a *rand.Rand seeded
// with Config.Seed, in a fixed job order, so a seed pins the workload.
package workload

import (
	"math"
	"math/rand"

	"corral/internal/job"
)

// GB is 10^9 bytes.
const GB = 1e9

// mapRate and reduceRate are every generated task's processing rate in
// bytes/sec (Profile.MapRate and ReduceRate): 100 MB/s.
const (
	mapRate    = 100e6
	reduceRate = 100e6
)

// Config controls generation.
type Config struct {
	// Scale multiplies all byte sizes (default 1.0). Experiments use
	// sub-1 scales to keep task counts simulator-friendly.
	Scale float64
	// Seed drives all sampling.
	Seed int64
	// Jobs overrides the workload's default job count when > 0.
	Jobs int
	// ArrivalWindow spreads arrivals uniformly over [0, window] seconds
	// (the paper uses 60 min for §6.2.2). Zero means batch (all at 0).
	ArrivalWindow float64
	// TaskScale multiplies W1's class-defined task counts (default 1).
	// Experiments use sub-1 values together with proportionally smaller
	// clusters, preserving the job-size : rack-slots ratio.
	TaskScale float64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.TaskScale <= 0 {
		c.TaskScale = 1
	}
	return c
}

// taskCount sizes a stage's task count so per-task input is ~targetPerTask
// bytes, within [1, max].
func taskCount(bytes, targetPerTask float64, max int) int {
	n := int(math.Ceil(bytes / targetPerTask))
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

// mr builds one MapReduce job with task counts derived from data sizes.
func mr(cfg Config, id int, name string, in, shuffle, out float64, rng *rand.Rand) *job.Job {
	const perTask = 256e6 // one block per map task
	maps := taskCount(in, perTask, 4000)
	reduces := taskCount(math.Max(shuffle, out), 2*perTask, 1000)
	j := job.MapReduce(id, name, job.Profile{
		InputBytes:   in,
		ShuffleBytes: shuffle,
		OutputBytes:  out,
		MapTasks:     maps,
		ReduceTasks:  reduces,
		MapRate:      mapRate,
		ReduceRate:   reduceRate,
	})
	if cfg.ArrivalWindow > 0 {
		j.Arrival = rng.Float64() * cfg.ArrivalWindow
	}
	return j
}

// W1 generates the Quantcast-derived mix: equal thirds of small, medium
// and large jobs with selectivities drawn from [4:1 .. 1:4]. Default 90
// jobs.
func W1(cfg Config) []*job.Job {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Jobs
	if n == 0 {
		n = 90
	}
	jobs := make([]*job.Job, 0, n)
	for i := 0; i < n; i++ {
		// The size classes are task-count classes (§6.1): small ≤ 50,
		// medium ≤ 500, large ≥ 1000 tasks. Tasks come first; bytes follow.
		var maps, reduces int
		switch i % 3 {
		case 0: // small
			maps = rng.Intn(31) + 4 // 4..34
			reduces = maps / 2
		case 1: // medium
			maps = rng.Intn(250) + 80 // 80..329
			reduces = maps / 2
		default: // large
			maps = rng.Intn(1000) + 700 // 700..1699
			reduces = maps / 2
		}
		maps = int(float64(maps) * cfg.TaskScale)
		reduces = int(float64(reduces) * cfg.TaskScale)
		if maps < 1 {
			maps = 1
		}
		if reduces < 1 {
			reduces = 1
		}
		in := float64(maps) * 256e6 * (0.5 + rng.Float64()) * cfg.Scale / cfg.TaskScale
		// Selectivity in [0.25, 4]: shuffle = in * s1, out = shuffle * s2.
		s1 := math.Exp((rng.Float64()*2 - 1) * math.Ln2 * 2) // 0.25..4 log-uniform
		s2 := math.Exp((rng.Float64()*2 - 1) * math.Ln2 * 2)
		shuffle := in * s1
		out := clampFloat(shuffle*s2, 0, in*4)
		j := job.MapReduce(i+1, w1Name(i), job.Profile{
			InputBytes:   in,
			ShuffleBytes: shuffle,
			OutputBytes:  out,
			MapTasks:     maps,
			ReduceTasks:  reduces,
			MapRate:      mapRate,
			ReduceRate:   reduceRate,
		})
		if cfg.ArrivalWindow > 0 {
			j.Arrival = rng.Float64() * cfg.ArrivalWindow
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func w1Name(i int) string {
	switch i % 3 {
	case 0:
		return "w1-small"
	case 1:
		return "w1-medium"
	}
	return "w1-large"
}

// W2 generates the SWIM/Yahoo-derived skewed mix: ~90% tiny jobs plus two
// giants reading ~5.5 TB each with shuffle ≈ 1.8× input. Default 400 jobs.
func W2(cfg Config) []*job.Job {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Jobs
	if n == 0 {
		n = 400
	}
	jobs := make([]*job.Job, 0, n)
	giants := 2
	if n < 10 {
		giants = 1
	}
	for i := 0; i < n; i++ {
		var in, shuffle, out float64
		switch {
		case i < giants:
			in = 5500 * GB * cfg.Scale
			shuffle = in * 1.8
			out = in * 0.2
		case i < n/10: // mid tier
			in = (1 + rng.Float64()*20) * GB * cfg.Scale
			shuffle = in * (0.3 + rng.Float64())
			out = shuffle * 0.5
		default: // tiny: <= 200 MB input, <= 75 MB shuffle
			in = (20 + rng.Float64()*180) * 1e6 * cfg.Scale
			shuffle = math.Min(in*(0.2+rng.Float64()*0.3), 75e6*cfg.Scale)
			out = shuffle * 0.5
		}
		name := "w2-tiny"
		if i < giants {
			name = "w2-giant"
		} else if i < n/10 {
			name = "w2-mid"
		}
		jobs = append(jobs, mr(cfg, i+1, name, in, shuffle, out, rng))
	}
	return jobs
}

// W3 generates the Cosmos-derived workload matching Table 1: lognormal
// input sizes with median ~7.1 GB and 95th percentile ~162 GB; shuffle
// median ~6 GB / p95 ~71.5 GB; task counts median ~180 / p95 ~2060.
// Default 200 jobs.
func W3(cfg Config) []*job.Job {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Jobs
	if n == 0 {
		n = 200
	}
	// Lognormal with given median m and p95 q: mu = ln m,
	// sigma = ln(q/m)/1.645.
	sample := func(median, p95 float64) float64 {
		mu := math.Log(median)
		sigma := math.Log(p95/median) / 1.645
		return math.Exp(mu + sigma*rng.NormFloat64())
	}
	jobs := make([]*job.Job, 0, n)
	for i := 0; i < n; i++ {
		in := sample(7.1*GB, 162.3*GB) * cfg.Scale
		shuffle := sample(6*GB, 71.5*GB) * cfg.Scale
		out := shuffle * (0.2 + rng.Float64()*0.6)
		j := mr(cfg, i+1, "w3", in, shuffle, out, rng)
		jobs = append(jobs, j)
	}
	return jobs
}

// TPCH generates nq Hive-style DAG queries (default 15, as in §6.3) over a
// shared database of dbBytes (paper: 200 GB, ORC). Each query is a small
// tree: 1-3 scan stages feeding joins/aggregations, shaped so shuffle time
// is a minority share (§6.3 observes ~20%).
func TPCH(cfg Config, dbBytes float64) []*job.Job {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Jobs
	if n == 0 {
		n = 15
	}
	if dbBytes <= 0 {
		dbBytes = 200 * GB
	}
	dbBytes *= cfg.Scale
	const perTask = 256e6
	mkStage := func(name string, in, shuffle, out float64, up []int) job.Stage {
		return job.Stage{
			Name: name,
			Profile: job.Profile{
				InputBytes:   in,
				ShuffleBytes: shuffle,
				OutputBytes:  out,
				MapTasks:     taskCount(in, perTask, 2000),
				ReduceTasks:  taskCount(math.Max(shuffle, out), 2*perTask, 500),
				MapRate:      mapRate,
				ReduceRate:   reduceRate,
			},
			Upstream: up,
		}
	}
	jobs := make([]*job.Job, 0, n)
	for q := 0; q < n; q++ {
		// Queries scan 10-60% of the database across 1-3 tables.
		scans := rng.Intn(3) + 1
		var stages []job.Stage
		var scanIdx []int
		for s := 0; s < scans; s++ {
			in := dbBytes * (0.1 + rng.Float64()*0.2)
			// Scans are selective: shuffle « input (keeps the workload
			// CPU/disk-heavy as §6.3 observes).
			shuffle := in * (0.05 + rng.Float64()*0.15)
			out := shuffle * 0.8
			scanIdx = append(scanIdx, len(stages))
			stages = append(stages, mkStage("scan", in, shuffle, out, nil))
		}
		// Join/aggregate stage consumes all scans.
		joinIn := 0.0
		for _, si := range scanIdx {
			joinIn += stages[si].Profile.OutputBytes
		}
		join := len(stages)
		stages = append(stages, mkStage("join", joinIn, joinIn*0.5, joinIn*0.3, scanIdx))
		// Final aggregation.
		aggIn := stages[join].Profile.OutputBytes
		stages = append(stages, mkStage("agg", aggIn, aggIn*0.3, aggIn*0.1, []int{join}))

		j := &job.Job{
			ID:        q + 1,
			Name:      "tpch-q" + itoa(q+1),
			Recurring: true,
			Stages:    stages,
		}
		if cfg.ArrivalWindow > 0 {
			j.Arrival = rng.Float64() * cfg.ArrivalWindow
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SlotsPerJobMix generates the Fig 2 distribution for one "production
// cluster": job slot requests whose CDF puts the given fraction under one
// rack (240 slots). Returns sorted slot counts.
func SlotsPerJobMix(seed int64, n int, underOneRack float64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		if rng.Float64() < underOneRack {
			// Log-uniform in [1, 240].
			out[i] = int(math.Exp(rng.Float64()*math.Log(240))) + 0
		} else {
			// Log-uniform in (240, 10000].
			lo, hi := math.Log(240), math.Log(10000)
			out[i] = int(math.Exp(lo + rng.Float64()*(hi-lo)))
		}
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}
