// Package lp computes lower bounds on the offline planning problem,
// mirroring the paper's Appendix A. The bounds let us report the quality
// of the two-phase heuristics (§4.2: within 3% for batch, 15% for online).
//
// # Batch (LP-Batch)
//
//	min T   s.t.  Σ_r x_jr = 1            ∀j    (2)
//	              T ≥ Σ_r x_jr L_j(r)     ∀j    (3)
//	              T·R ≥ Σ_{j,r} x_jr L_j(r)·r   (4)
//	              x_jr ∈ [0,1]                  (5)
//
// Rather than calling an external solver, we exploit the LP's structure:
// for a fixed T the problem decomposes into J independent two-constraint
// LPs ("minimize the work W_j = Σ_r x_jr·L_j(r)·r subject to Σx = 1 and
// Σ x L ≤ T"), each of which attains its optimum on at most two racks
// counts. Feasibility of T is then Σ_j W_j^min(T) ≤ T·R, which is monotone
// in T, so the optimal T is found by bisection. This yields the exact
// LP optimum to the requested tolerance with no external dependencies.
//
// # Online
//
// The paper only sketches LP-Online. We report the maximum of two valid
// relaxations of the average completion time:
//
//  1. per-job floor: avg_j (L_j^min), since no schedule can finish job j
//     faster than its best response-function latency; and
//  2. fluid SRPT: relax the cluster to a single preemptible resource of
//     rate R rack-seconds/sec on which job j requires w_j = min_r L_j(r)·r
//     work. SRPT minimizes average completion in that relaxation, so its
//     average is a lower bound for any rack-granular schedule.
//
// Determinism obligations: both bounds are pure functions of the jobs and
// cluster — deterministic bisection to a fixed tolerance, no randomness,
// no map iteration.
package lp

import (
	"math"
	"sort"

	"corral/internal/job"
	"corral/internal/model"
)

// Tolerance is the relative bisection tolerance for BatchLowerBound.
const Tolerance = 1e-9

// BatchLowerBound returns the exact optimum of LP-Batch for the given jobs
// under the cluster's response functions (with imbalance penalty alpha;
// pass the same alpha the planner used for an apples-to-apples gap).
func BatchLowerBound(c model.Cluster, jobs []*job.Job, alpha float64) float64 {
	if len(jobs) == 0 {
		return 0
	}
	if alpha < 0 {
		alpha = c.DefaultAlpha()
	}
	resp := make([]model.ResponseFunc, len(jobs))
	for i, j := range jobs {
		resp[i] = c.Response(j, alpha)
	}
	R := float64(c.Racks)

	// Lower bracket: T must cover every job's fastest latency, and the
	// minimum-possible total work must fit in T·R.
	lo := 0.0
	minTotalWork := 0.0
	for _, f := range resp {
		minLat := math.Inf(1)
		minWork := math.Inf(1)
		for r := 1; r <= f.Racks(); r++ {
			if l := f.At(r); l < minLat {
				minLat = l
			}
			if w := f.At(r) * float64(r); w < minWork {
				minWork = w
			}
		}
		if minLat > lo {
			lo = minLat
		}
		minTotalWork += minWork
	}
	if w := minTotalWork / R; w > lo {
		lo = w
	}
	if feasible(lo, resp, R) {
		return lo
	}
	// Upper bracket: grow until feasible (the all-min-latency assignment
	// gives a finite feasible T quickly).
	hi := lo
	for !feasible(hi, resp, R) {
		hi *= 2
	}
	for hi-lo > Tolerance*hi {
		mid := (lo + hi) / 2
		if feasible(mid, resp, R) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// feasible reports whether makespan T admits a fractional assignment.
func feasible(T float64, resp []model.ResponseFunc, R float64) bool {
	total := 0.0
	for _, f := range resp {
		w := minWork(f, T)
		if math.IsInf(w, 1) {
			return false
		}
		total += w
	}
	return total <= T*R*(1+1e-12)
}

// minWork solves the per-job two-constraint LP: minimize Σ x_r L(r)·r
// subject to Σ x_r = 1, Σ x_r L(r) <= T, x >= 0. The optimum lies on a
// vertex supported by at most two rack counts: either a single r with
// L(r) <= T, or a mixture of one r with L <= T and one with L > T whose
// average latency equals T. Returns +Inf when even the fastest single
// allocation exceeds T.
func minWork(f model.ResponseFunc, T float64) float64 {
	R := f.Racks()
	best := math.Inf(1)
	for r := 1; r <= R; r++ {
		if f.At(r) <= T {
			if w := f.At(r) * float64(r); w < best {
				best = w
			}
		}
	}
	if math.IsInf(best, 1) {
		return best
	}
	for r1 := 1; r1 <= R; r1++ {
		l1 := f.At(r1)
		if l1 > T {
			continue
		}
		for r2 := 1; r2 <= R; r2++ {
			l2 := f.At(r2)
			if l2 <= T {
				continue
			}
			// x on r1, 1-x on r2, with mean latency exactly T.
			x := (l2 - T) / (l2 - l1)
			w := float64(x*l1*float64(r1)) + float64((1-x)*l2*float64(r2))
			if w < best {
				best = w
			}
		}
	}
	return best
}

// OnlineLowerBound returns a lower bound on the average completion time of
// any rack-granular schedule for jobs with arrival times.
func OnlineLowerBound(c model.Cluster, jobs []*job.Job, alpha float64) float64 {
	if len(jobs) == 0 {
		return 0
	}
	if alpha < 0 {
		alpha = c.DefaultAlpha()
	}
	J := float64(len(jobs))
	R := float64(c.Racks)

	items := make([]item, len(jobs))
	sumMinLat := 0.0
	for i, j := range jobs {
		f := c.Response(j, alpha)
		it := item{arrival: j.Arrival, work: math.Inf(1), minLat: math.Inf(1)}
		for r := 1; r <= f.Racks(); r++ {
			if l := f.At(r); l < it.minLat {
				it.minLat = l
			}
			if w := f.At(r) * float64(r); w < it.work {
				it.work = w
			}
		}
		items[i] = it
		sumMinLat += it.minLat
	}
	perJobFloor := sumMinLat / J

	fluid := fluidSRPT(items, R) / J
	return math.Max(perJobFloor, fluid)
}

// fluidSRPT simulates shortest-remaining-processing-time on a single
// preemptible resource of the given rate and returns the sum of
// (completion − arrival) over all items.
func fluidSRPT(items []item, rate float64) float64 {
	sort.Slice(items, func(a, b int) bool { return items[a].arrival < items[b].arrival })
	type active struct {
		remaining float64
		arrival   float64
	}
	var pool []active
	now := 0.0
	sumFlow := 0.0
	next := 0
	for next < len(items) || len(pool) > 0 {
		if len(pool) == 0 {
			now = math.Max(now, items[next].arrival)
		}
		// Admit arrivals at or before now.
		for next < len(items) && items[next].arrival <= now {
			pool = append(pool, active{remaining: items[next].work, arrival: items[next].arrival})
			next++
		}
		// Pick smallest remaining.
		sel := 0
		for i := range pool {
			if pool[i].remaining < pool[sel].remaining {
				sel = i
			}
		}
		// Run until it finishes or the next arrival.
		finishAt := now + pool[sel].remaining/rate
		if next < len(items) && items[next].arrival < finishAt {
			dt := items[next].arrival - now
			pool[sel].remaining -= float64(dt * rate)
			now = items[next].arrival
			continue
		}
		now = finishAt
		sumFlow += now - pool[sel].arrival
		pool[sel] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
	}
	return sumFlow
}

// item is one job reduced to the quantities the bounds need.
type item struct {
	arrival float64
	work    float64 // min_r L(r)·r
	minLat  float64 // min_r L(r)
}
