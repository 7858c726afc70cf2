// Command corraltrace summarizes a JSONL trace written by
// corralsim -trace out.jsonl (or any corral.TraceCollector.WriteJSONL
// output). For every simulation run in the trace it reports
//
//   - a per-job time-in-state breakdown: time spent queued (waiting for a
//     slot), in retry backoff, running map attempts, shuffling, and
//     running post-shuffle reduce compute — summed over finished attempts
//     of all the job's tasks, and
//
//   - the most contended links: average utilization integrated over the
//     run (a step function between link_util change points), with peak
//     utilization and the time spent at or above 99% capacity.
//
// Planner runs (plan_start/plan_assign/plan_done) are summarized as the
// chosen rack sets, and overload-hardening activity (budget misses and
// fallback tiers, suppressed replans, deferred and shed arrivals with the
// peak admission-queue depth) is rolled up into a degradation line. The
// output is a pure function of the trace bytes.
//
// Usage:
//
//	corraltrace trace.jsonl
//	corraltrace -top 10 trace.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// event mirrors the JSONL schema of internal/trace: run-header lines set
// Run, event lines set Ev. Absent numeric fields decode as 0; the
// summarizer only reads fields the emitting kind is defined to carry.
type event struct {
	Run    *int    `json:"run"`
	Label  string  `json:"label"`
	T      float64 `json:"t"`
	Ev     string  `json:"ev"`
	Role   string  `json:"role"`
	Job    int     `json:"job"`
	Stage  int     `json:"stage"`
	Task   int     `json:"task"`
	Att    int     `json:"att"`
	Mach   int     `json:"mach"`
	Link   int     `json:"link"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail"`
}

func main() {
	var (
		top = flag.Int("top", 5, "number of most-contended links to show per run")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: corraltrace [-top N] trace.jsonl")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := summarize(os.Stdout, f, *top); err != nil {
		fatal(err)
	}
}

// summarize streams the JSONL trace, cutting it into runs at header lines
// and printing one summary per run.
func summarize(w io.Writer, r io.Reader, top int) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var run *runSummary
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e event
		if err := json.Unmarshal(b, &e); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		if e.Run != nil {
			if run != nil {
				run.print(w, top)
			}
			run = newRunSummary(e.Label)
			continue
		}
		if run == nil {
			run = newRunSummary("(unlabeled)")
		}
		run.add(&e)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if run == nil {
		return fmt.Errorf("empty trace")
	}
	run.print(w, top)
	return nil
}

// taskKey identifies one task across its attempts.
type taskKey struct {
	role  string
	job   int
	stage int
	task  int
}

// jobStats accumulates one job's time-in-state totals.
type jobStats struct {
	name    string
	queued  float64
	backoff float64
	mapRun  float64
	shuffle float64
	reduce  float64
	done    float64
	failed  bool
}

// linkStats integrates one link's utilization step function.
type linkStats struct {
	name     string
	lastT    float64
	lastUtil float64
	integral float64
	peak     float64
	saturate float64 // time at >= 99% utilization
}

type runSummary struct {
	label     string
	end       float64
	jobs      map[int]*jobStats
	links     map[int]*linkStats
	queuedAt  map[taskKey]float64
	startAt   map[taskKey]float64
	shuffleAt map[taskKey]float64
	plans     []string
	replans   int

	// Overload-hardening roll-up.
	suppressed     int
	budgetExceeded int
	degradeInc     int // fallback tier 1: commitments-only incremental replan
	degradeGreedy  int // fallback tier 2: greedy Yarn-CS placement
	deferred       int
	shed           int
	peakQueue      int
}

func newRunSummary(label string) *runSummary {
	return &runSummary{
		label:     label,
		jobs:      map[int]*jobStats{},
		links:     map[int]*linkStats{},
		queuedAt:  map[taskKey]float64{},
		startAt:   map[taskKey]float64{},
		shuffleAt: map[taskKey]float64{},
	}
}

func (rs *runSummary) job(id int) *jobStats {
	js := rs.jobs[id]
	if js == nil {
		js = &jobStats{}
		rs.jobs[id] = js
	}
	return js
}

func (rs *runSummary) add(e *event) {
	if e.T > rs.end {
		rs.end = e.T
	}
	k := taskKey{e.Role, e.Job, e.Stage, e.Task}
	switch e.Ev {
	case "link_meta":
		rs.links[e.Link] = &linkStats{name: e.Detail}
	case "job_submit":
		rs.job(e.Job).name = e.Detail
	case "job_fail":
		rs.job(e.Job).failed = true
	case "job_done":
		rs.job(e.Job).done = e.T
	case "task_queued":
		rs.queuedAt[k] = e.T
	case "task_backoff":
		rs.job(e.Job).backoff += e.Value
	case "task_start":
		if q, ok := rs.queuedAt[k]; ok {
			rs.job(e.Job).queued += e.T - q
			delete(rs.queuedAt, k)
		}
		rs.startAt[k] = e.T
		delete(rs.shuffleAt, k)
	case "shuffle_done":
		// Reduce tasks only; role is carried by the key ("reduce").
		rs.shuffleAt[taskKey{"reduce", e.Job, e.Stage, e.Task}] = e.T
	case "task_finish":
		js := rs.job(e.Job)
		switch e.Role {
		case "map":
			js.mapRun += e.Value
		case "reduce":
			start, haveStart := rs.startAt[k]
			if s, ok := rs.shuffleAt[k]; ok && haveStart {
				js.shuffle += s - start
				js.reduce += e.T - s
			} else {
				js.reduce += e.Value
			}
		}
		delete(rs.startAt, k)
		delete(rs.shuffleAt, k)
	case "link_util":
		ls := rs.links[e.Link]
		if ls == nil {
			ls = &linkStats{name: fmt.Sprintf("link%d", e.Link)}
			rs.links[e.Link] = ls
		}
		ls.advance(e.T)
		ls.lastUtil = e.Value
		if e.Value > ls.peak {
			ls.peak = e.Value
		}
	case "replan":
		rs.replans++
	case "plan_budget_exceeded":
		rs.budgetExceeded++
	case "degrade":
		if e.Att == 2 {
			rs.degradeGreedy++
		} else {
			rs.degradeInc++
		}
	case "replan_suppressed":
		rs.suppressed++
	case "job_deferred":
		rs.deferred++
		if d := int(e.Value); d > rs.peakQueue {
			rs.peakQueue = d
		}
	case "job_shed":
		rs.shed++
		if d := int(e.Value); d > rs.peakQueue {
			rs.peakQueue = d
		}
	case "plan_assign":
		rs.plans = append(rs.plans,
			fmt.Sprintf("  job %-4d prio %-3d start %8.1fs racks [%s]",
				e.Job, e.Att, e.Value, e.Detail))
	}
}

// advance integrates the current utilization level up to time t.
func (ls *linkStats) advance(t float64) {
	if dt := t - ls.lastT; dt > 0 {
		ls.integral += float64(ls.lastUtil * dt)
		if ls.lastUtil >= 0.99 {
			ls.saturate += dt
		}
	}
	ls.lastT = t
}

func (rs *runSummary) print(w io.Writer, top int) {
	fmt.Fprintf(w, "run %s\n", rs.label)
	if rs.replans > 0 {
		fmt.Fprintf(w, "  %d failure-triggered replan(s)\n", rs.replans)
	}
	if rs.budgetExceeded+rs.suppressed+rs.degradeInc+rs.degradeGreedy+rs.deferred+rs.shed > 0 {
		fmt.Fprintf(w, "  overload degradation: %d budget miss(es) -> %d incremental / %d greedy fallback(s), %d replan(s) suppressed\n",
			rs.budgetExceeded, rs.degradeInc, rs.degradeGreedy, rs.suppressed)
		fmt.Fprintf(w, "  admission control: %d deferred, %d shed, peak queue depth %d\n",
			rs.deferred, rs.shed, rs.peakQueue)
	}
	if len(rs.plans) > 0 {
		fmt.Fprintf(w, "  planned assignments:\n")
		for _, p := range rs.plans {
			fmt.Fprintf(w, "  %s\n", p)
		}
	}
	if len(rs.jobs) > 0 {
		ids := make([]int, 0, len(rs.jobs))
		for id := range rs.jobs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Fprintf(w, "  %-24s %10s %10s %10s %10s %10s %10s\n",
			"job", "queued", "backoff", "map", "shuffle", "reduce", "done@")
		for _, id := range ids {
			js := rs.jobs[id]
			name := js.name
			if name == "" {
				name = fmt.Sprintf("job%d", id)
			}
			if len(name) > 18 {
				name = name[:18]
			}
			doneCol := fmt.Sprintf("%.1fs", js.done)
			if js.failed {
				doneCol = "FAILED"
			} else if js.done == 0 {
				doneCol = "-"
			}
			fmt.Fprintf(w, "  %-24s %9.1fs %9.1fs %9.1fs %9.1fs %9.1fs %10s\n",
				fmt.Sprintf("%d %s", id, name),
				js.queued, js.backoff, js.mapRun, js.shuffle, js.reduce, doneCol)
		}
	}
	if len(rs.links) > 0 && rs.end > 0 {
		ids := make([]int, 0, len(rs.links))
		for id := range rs.links {
			rs.links[id].advance(rs.end)
			ids = append(ids, id)
		}
		// Most contended first: by time-integrated utilization, link id ties.
		sort.Slice(ids, func(a, b int) bool {
			x, y := rs.links[ids[a]], rs.links[ids[b]]
			if x.integral != y.integral {
				return x.integral > y.integral
			}
			return ids[a] < ids[b]
		})
		if top > len(ids) {
			top = len(ids)
		}
		shown := 0
		for _, id := range ids[:top] {
			ls := rs.links[id]
			if ls.integral == 0 {
				break
			}
			if shown == 0 {
				fmt.Fprintf(w, "  top contended links (avg / peak util, time saturated):\n")
			}
			shown++
			fmt.Fprintf(w, "    %-24s %5.1f%% / %5.1f%%  %8.1fs\n",
				ls.name, 100*ls.integral/rs.end, 100*ls.peak, ls.saturate)
		}
	}
	fmt.Fprintf(w, "  end of trace: %s\n\n", fmtSeconds(rs.end))
}

func fmtSeconds(s float64) string {
	if math.IsInf(s, 0) || math.IsNaN(s) {
		return fmt.Sprint(s)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", s), "0"), ".") + "s"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corraltrace:", err)
	os.Exit(1)
}
