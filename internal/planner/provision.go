package planner

// Provisioning fast path. The §4.2 provisioning phase explores a chain of
// J·(R−1)+1 candidate allocations — start every job at one rack, then
// repeatedly widen the job with the longest current estimate — and keeps
// the candidate whose prioritization objective is smallest. Four
// structural facts make this chain cheap to evaluate at datacenter scale
// without changing a single output bit:
//
//  1. The chain itself never looks at the prioritization results: the job
//     to widen next is chosen purely from resp[i].At(rj[i]), which depends
//     only on the widths so far. The whole chain can therefore be
//     precomputed up front (buildChain) and the candidate evaluations
//     fanned out over the bounded worker pool (internal/pool), with a
//     serial index-order argmin
//     afterwards — the strict `<` of the legacy loop — so the winner is
//     identical for any worker count.
//
//  2. Consecutive candidates differ in exactly one job's width, so a
//     worker walking a contiguous block of the chain can maintain the
//     prioritization sort order incrementally (one-element reposition
//     instead of a full J·log J re-sort), and a candidate's objective
//     needs no materialized rack sets at all: the start time of a job is
//     the k-th smallest rack-availability time, which depends only on the
//     sorted *multiset* of times — never on which rack holds one. The
//     evaluator therefore group-compresses rack availability into sorted
//     (time, count) runs, replacing the legacy scheduler's O(R)-per-job
//     flat merge and per-job rack-set sort with a few group operations.
//
//  3. The state of a prioritization pass before order position p — the
//     live availability runs, makespan and completion sum — depends only on
//     order[:p], those jobs' widths and the initial availability. Widening
//     one job moves only that job in the order, so every position below d,
//     the smaller of its old and new positions, keeps its job and width. The
//     evaluator saves the pass state every ckStride positions and resumes
//     each candidate from the last checkpoint at or below d. The suffix
//     repeats the same float operations in the same order as a pass from
//     position 0, so the objective is bit-identical; online, where jobs
//     are ordered by arrival, about half of each pass is skipped.
//
//  4. Only the argmin matters, and a pass's partial objective never falls
//     as positions are added. So each pass carries a bound, the exact
//     objective of a candidate already scored, and stops with +Inf once
//     its partial value is strictly above it: such a candidate is strictly
//     worse than an earlier one and can never win. The bound starts at
//     candidate 0's objective, scored serially before the fan-out, and
//     each block tightens its own. A pruned pass ends at a checkpoint
//     boundary, stop; a next candidate whose first changed position is at
//     or past stop shares that prefix and is pruned without walking a
//     position. On the 10k scale cell about 99% of the candidates are
//     pruned, most of them at no cost, and the positions walked per plan
//     fall from 16.8M to 0.49M. widen finds the widened job through an
//     inverse index (posOf) instead of an O(J) scan, the top cost once
//     pruning is in.
//
// The chain is built with a max-heap of the jobs that can still widen,
// keyed by (current estimate descending, job index ascending): each step
// pops the legacy scan's pick in O(log J) instead of scanning all J jobs.
//
// The legacy serial engine (the scheduler evaluated once per candidate,
// exactly the pre-fast-path code) lives in provision_test.go as the
// differential reference, beside the linear-scan chain rule — the same
// playbook that keeps netsim's max-min allocator honest:
// TestProvisionFastMatchesSerial proves the two choose identical widths
// across seeded random workloads, objectives, commitments and a
// scale-suite cell.
//
// Determinism obligations: every objective not pruned is a pure function
// of (jobs, cluster, widths), and a pruned one is never the argmin; block
// decomposition and worker scheduling decide only which losing candidates
// are pruned, never the winner or the reduction order.

import (
	"container/heap"
	"math"
	"sort"

	"corral/internal/job"
	"corral/internal/model"
	"corral/internal/pool"
)

// buildChain replays the widening rule without evaluating any candidate:
// chain[t] is the job widened to produce candidate t+1 (candidate 0 is
// all-ones). The rule is verbatim the legacy loop's — widen the job with
// the longest current estimate among those not yet cluster-wide, first
// index on ties, and only estimates strictly above −1 (NaN never
// qualifies) — so the precomputed chain visits exactly the allocations the
// serial path visits, in the same order. The heap holds the jobs that
// qualify; a job leaves it at rj == R or when its estimate stops
// qualifying, since its width, and so its estimate, never changes again.
func buildChain(resp []model.ResponseFunc, J, R int) []int {
	chain := make([]int, 0, J*(R-1))
	rj := make([]int, J)
	h := make(chainHeap, 0, J)
	for i := range rj {
		rj[i] = 1
		if R > 1 {
			if l := resp[i].At(1); l > -1 {
				h = append(h, chainEntry{lat: l, job: i})
			}
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		w := h[0].job
		rj[w]++
		chain = append(chain, w)
		if rj[w] < R {
			if l := resp[w].At(rj[w]); l > -1 {
				h[0].lat = l
				heap.Fix(&h, 0)
				continue
			}
		}
		heap.Pop(&h)
	}
	return chain
}

// chainEntry is one widenable job and its current estimate.
type chainEntry struct {
	lat float64 // resp[job].At(rj[job])
	job int
}

// chainHeap is buildChain's max-heap: the root is the job the legacy
// linear scan would pick, the longest estimate with the lowest index on
// ties. Estimates in the heap are never NaN, so the order is total.
type chainHeap []chainEntry

func (h chainHeap) Len() int { return len(h) }
func (h chainHeap) Less(a, b int) bool {
	// Equal estimates are a tie that falls to the index, as under the
	// linear scan's strict `>`.
	if h[a].lat != h[b].lat {
		return h[a].lat > h[b].lat
	}
	return h[a].job < h[b].job
}
func (h chainHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *chainHeap) Push(x any)   { *h = append(*h, x.(chainEntry)) }
func (h *chainHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// fGroup is a maximal run of racks sharing one availability time in the
// sorted rack-availability sequence.
type fGroup struct {
	f float64 // availability time
	n int     // racks carrying it
}

// groupsFromInitF compresses an initial rack-availability vector into
// sorted (time, count) runs. nil (New: every rack free at 0) is a single
// group spanning the cluster.
func groupsFromInitF(initF []float64, R int) []fGroup {
	if initF == nil {
		return []fGroup{{f: 0, n: R}}
	}
	fs := append([]float64(nil), initF...)
	sort.Float64s(fs)
	groups := make([]fGroup, 0, 8)
	for _, f := range fs {
		//corralvet:ok floateq exact identity intended: bit-equal availability times collapse into one group; any difference, however small, starts a new run
		if n := len(groups); n > 0 && groups[n-1].f == f {
			groups[n-1].n++
		} else {
			groups = append(groups, fGroup{f: f, n: 1})
		}
	}
	return groups
}

// jobLess is the prioritization order (Fig 4) shared by the legacy
// scheduler's full sort, the evaluator's block-entry sort and the
// incremental reposition: online orders by arrival first; both scenarios
// then take widest-first, longest-first, with the job ID as the final
// tie-break. The ID step makes this a strict total order, so any valid
// sort — full, stable or binary-search reinsertion — produces the one
// identical permutation.
func jobLess(online bool, jobs []*job.Job, resp []model.ResponseFunc, rj []int, a, b int) bool {
	if online {
		//corralvet:ok floateq exact identity intended: sort key comparison — any arrival difference, however small, orders the jobs; ties fall through
		if jobs[a].Arrival != jobs[b].Arrival {
			return jobs[a].Arrival < jobs[b].Arrival
		}
	}
	if rj[a] != rj[b] {
		return rj[a] > rj[b]
	}
	la, lb := resp[a].At(rj[a]), resp[b].At(rj[b])
	//corralvet:ok floateq exact identity intended: sort key comparison — any latency difference, however small, orders the jobs; ties fall through to the ID tie-break
	if la != lb {
		return la > lb
	}
	return jobs[a].ID < jobs[b].ID
}

// ckStride is the spacing, in prioritization-order positions, of the pass
// state checkpoints the objective resumes from (fact 3 above).
const ckStride = 16

// checkpoint is the pass state before one order position: the live runs
// are groups[head:n], stored in the evaluator's ckRuns.
type checkpoint struct {
	head, n       int
	makespan, sum float64
}

// evaluator computes one candidate objective per call, reusing per-worker
// scratch so steady-state evaluation allocates nothing (pinned by
// TestEvaluatorSteadyStateZeroAlloc and corralvet's hotalloc check via
// the //corral:hotpath markers).
type evaluator struct {
	jobs       []*job.Job
	resp       []model.ResponseFunc
	online     bool
	rj         []int
	order      []int // job indices in prioritization order, maintained incrementally
	initGroups []fGroup
	posOf      []int    // posOf[job] is the job's position in order
	groups     []fGroup // scratch: rack availability as sorted (time, count) runs

	// ck[c] is the pass state before order position c·ckStride, its live
	// runs at ckRuns[c·ckWidth:]. ck[0] is the initial state.
	ck      []checkpoint
	ckRuns  []fGroup
	ckWidth int // most live runs a pass can hold: one per rack at most

	// stop is the order position where the last pass ended: the boundary
	// it was pruned at, or J if it ran to the end. Checkpoints at or
	// below stop hold the current order's prefix (fact 4 above).
	stop int

	work evalWork // counts of the work done; only tests read them
}

// evalWork counts an evaluator's work since it was made.
type evalWork struct {
	walked        int // order positions the passes replayed
	prunedShared  int // candidates pruned inside the last pruned prefix, at no cost
	prunedPartial int // candidates pruned after a partial pass
}

func (w *evalWork) add(o evalWork) {
	w.walked += o.walked
	w.prunedShared += o.prunedShared
	w.prunedPartial += o.prunedPartial
}

func newEvaluator(in Input, resp []model.ResponseFunc, initGroups []fGroup) *evaluator {
	J := len(in.Jobs)
	e := &evaluator{
		jobs:       in.Jobs,
		resp:       resp,
		online:     in.Objective == MinimizeAvgCompletion,
		rj:         make([]int, J),
		order:      make([]int, J),
		posOf:      make([]int, J),
		initGroups: initGroups,
		groups:     make([]fGroup, len(initGroups)+J+1),
	}
	racks := 0
	for _, g := range initGroups {
		racks += g.n
	}
	e.ckWidth = min(racks, len(e.groups))
	nck := J/ckStride + 1
	e.ck = make([]checkpoint, nck)
	e.ckRuns = make([]fGroup, nck*e.ckWidth)
	e.ck[0] = checkpoint{n: len(initGroups)}
	copy(e.ckRuns, initGroups)
	return e
}

// reset seeds the evaluator at the candidate with widths rj: one full
// stable sort at block entry; widen maintains the order incrementally
// from there. The next objective call must start at position 0.
func (e *evaluator) reset(rj []int) {
	copy(e.rj, rj)
	for i := range e.order {
		e.order[i] = i
	}
	sort.SliceStable(e.order, func(x, y int) bool {
		return jobLess(e.online, e.jobs, e.resp, e.rj, e.order[x], e.order[y])
	})
	for p, idx := range e.order {
		e.posOf[idx] = p
	}
	e.stop = len(e.order)
}

// widen applies rj[w]++, repositions w in the prioritization order and
// returns d, the first order position that changed: the smaller of w's
// old and new positions. The old position comes from the posOf index,
// the new one from a binary search over the other J−1 jobs, and only the
// slots between the two positions shift — in place of the full J·log J
// re-sort. Consecutive provisioning candidates differ in exactly this one
// key, and jobLess is a strict total order, so the repositioned sequence
// is the unique sorted permutation the full sort would produce.
//
//corral:hotpath widen runs once per provisioning candidate, J·(R−1) times per plan.
func (e *evaluator) widen(w int) int {
	e.rj[w]++
	order := e.order
	i := e.posOf[w]
	// Search the order with w removed: slot m holds order[m] below i and
	// order[m+1] from i on.
	lo, hi := 0, len(order)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		o := mid
		if mid >= i {
			o++
		}
		if jobLess(e.online, e.jobs, e.resp, e.rj, w, order[o]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	a, b := i, lo
	if lo < i {
		copy(order[lo+1:i+1], order[lo:i])
		a, b = lo, i
	} else {
		copy(order[i:lo], order[i+1:lo+1])
	}
	order[lo] = w
	for p := a; p <= b; p++ {
		e.posOf[order[p]] = p
	}
	return a
}

// objective runs the prioritization pass over the current widths from
// the last checkpoint at or below order position d and returns the
// candidate's objective value, bit-identical to
// scheduler.run(rj).objective(in.Objective) — or +Inf once the pass
// shows that value is strictly above bound (fact 4 above). The caller
// guarantees that order[:d] and those jobs' widths are unchanged since
// the previous call (d = 0 after reset), and that bound never rises
// between resets; the pass saves fresh checkpoints as it goes.
//
// Pruning: the partial objective — sum/J online, makespan in batch —
// never decreases as positions are added. Every online term finish − arr
// is ≥ 0 because every response entry is ≥ 0, and a float sum or max of
// such terms cannot fall. So a partial value strictly above bound, checked
// at each checkpoint boundary after the checkpoint is saved, means the
// full value is too. Ties are never pruned, and a NaN partial never
// compares above bound, so such a pass runs to the end. If d ≥ stop, the
// candidate shares the last pruned pass's prefix up to stop, whose
// partial value was already above a bound no lower than this one: it is
// pruned without walking a position.
//
// Bit-identity argument: a job's start time is the k-th smallest rack
// availability (legacy: rackF[k-1].f), which depends only on the sorted
// multiset of availability times, never on which rack carries one — and
// the k earliest racks all adopt the same finish time. So the multiset
// evolves identically whether tracked as the legacy flat (time, rackID)
// sequence or as compressed (time, count) runs, and rack identities can
// be dropped entirely: finish = max(start, arrival) + lat, makespan and
// the completion sum accumulate over the same job order with the same
// float operations. Equal-time runs merge; where the legacy flat list
// interleaves equal-time racks by ID, any prefix drawn from the combined
// run removes the same multiset of times regardless of the interleaving.
// A restored checkpoint reproduces the groups layout, head and both
// accumulators exactly as the pass from position 0 left them there.
//
//corral:hotpath objective runs once per provisioning candidate, J·(R−1)+1 times per plan.
func (e *evaluator) objective(d int, bound float64) float64 {
	if d >= e.stop {
		e.work.prunedShared++
		return math.Inf(1)
	}
	c := d / ckStride
	s := e.ck[c]
	groups := e.groups[:s.n]
	copy(groups[s.head:], e.ckRuns[c*e.ckWidth:c*e.ckWidth+s.n-s.head])
	head := s.head // groups[head:] is live; the prefix is consumed scratch
	makespan, sum := s.makespan, s.sum
	J := len(e.order)
	nJ := float64(len(e.jobs))
	from := c * ckStride
	for p := from; p < J; {
		end := min(p+ckStride, J)
		for ; p < end; p++ {
			idx := e.order[p]
			k := e.rj[idx]
			lat := e.resp[idx].At(k)
			arr := 0.0
			if e.online {
				arr = e.jobs[idx].Arrival
			}
			// start = availability of the k-th earliest rack: walk the runs.
			need := k
			gi := head
			for groups[gi].n < need {
				need -= groups[gi].n
				gi++
			}
			start := groups[gi].f
			if arr > start {
				start = arr
			}
			finish := start + lat
			// Consume the k earliest racks: drop whole runs, shrink the last.
			groups[gi].n -= need
			if groups[gi].n == 0 {
				gi++
			}
			head = gi
			// Reinsert them as one run at finish, keeping groups sorted.
			lo, hi := head, len(groups)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if groups[mid].f > finish {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			//corralvet:ok floateq exact identity intended: a run carrying the bit-identical finish time absorbs the reassigned racks; rack identities never reach the objective
			if lo > head && groups[lo-1].f == finish {
				groups[lo-1].n += k
			} else if head > 0 {
				// Slide the (short) live prefix left into the consumed slot.
				copy(groups[head-1:], groups[head:lo])
				groups[lo-1] = fGroup{f: finish, n: k}
				head--
			} else {
				// No consumed slot free: grow at the tail.
				groups = groups[:len(groups)+1]
				copy(groups[lo+1:], groups[lo:len(groups)-1])
				groups[lo] = fGroup{f: finish, n: k}
			}
			if finish > makespan {
				makespan = finish
			}
			sum += finish - arr
		}
		if p < J {
			c = p / ckStride
			e.ck[c] = checkpoint{head: head, n: len(groups), makespan: makespan, sum: sum}
			copy(e.ckRuns[c*e.ckWidth:], groups[head:])
			partial := makespan
			if e.online {
				partial = sum / nJ
			}
			if partial > bound {
				e.work.walked += p - from
				e.work.prunedPartial++
				e.stop = p
				return math.Inf(1)
			}
		}
	}
	e.work.walked += J - from
	e.stop = J
	if e.online {
		return sum / nJ
	}
	return makespan
}

// provision explores the widening chain and returns the best widths
// vector: the serial index-order argmin of scoreChain's objectives — the
// legacy loop's strict `<` update rule, so the earliest candidate wins
// ties and the result is worker-count-invariant. A pruned candidate's
// objective is strictly above an earlier candidate's, so the +Inf it
// scores in its place never changes the winner.
func provision(in Input, resp []model.ResponseFunc, initF []float64) []int {
	J := len(in.Jobs)
	chain := buildChain(resp, J, in.Cluster.Racks)
	objs, _ := scoreChain(in, resp, initF, chain)
	best := 0
	for t := 1; t < len(objs); t++ {
		if objs[t] < objs[best] {
			best = t
		}
	}
	bestRj := make([]int, J)
	for i := range bestRj {
		bestRj[i] = 1
	}
	for t := 0; t < best; t++ {
		bestRj[chain[t]]++
	}
	return bestRj
}

// scoreChain scores every candidate of chain: objs[t] is candidate t's
// objective, or +Inf where it was pruned. Candidate 0 is scored serially
// and unbounded, and its objective is every block's first bound; each
// block then tightens its own bound to the smallest objective it has
// scored, so no block reads another's results. Contiguous blocks amortize
// the block-entry sort and width replay; a few blocks per worker keeps
// the stealing pool balanced. Block geometry affects wall-clock and which
// losing candidates are pruned, never the argmin. The returned counters
// sum the block evaluators' work; only tests read them.
func scoreChain(in Input, resp []model.ResponseFunc, initF []float64, chain []int) ([]float64, evalWork) {
	J := len(in.Jobs)
	C := len(chain) + 1
	initGroups := groupsFromInitF(initF, in.Cluster.Racks)
	objs := make([]float64, C)
	ones := make([]int, J)
	for i := range ones {
		ones[i] = 1
	}
	// Block 0 continues in the evaluator that scored candidate 0.
	ev0 := newEvaluator(in, resp, initGroups)
	ev0.reset(ones)
	objs[0] = ev0.objective(0, math.Inf(1))

	nb := pool.Workers() * 4
	if nb > C {
		nb = C
	}
	if nb < 1 {
		nb = 1
	}
	works := make([]evalWork, nb)
	_ = pool.For(nb, func(b int) error { // block evaluation cannot fail
		lo, hi := b*C/nb, (b+1)*C/nb
		out := objs[lo:hi] // this block's own slots
		ev := ev0
		if b > 0 {
			ev = newEvaluator(in, resp, initGroups)
			rj := append([]int(nil), ones...)
			for t := 0; t < lo; t++ {
				rj[chain[t]]++
			}
			ev.reset(rj)
			out[0] = ev.objective(0, objs[0])
		}
		// A NaN bound never prunes; a NaN objective never tightens it.
		bound := objs[0]
		if out[0] < bound {
			bound = out[0]
		}
		for t := lo + 1; t < hi; t++ {
			v := ev.objective(ev.widen(chain[t-1]), bound)
			out[t-lo] = v
			if v < bound {
				bound = v
			}
		}
		works[b] = ev.work
		return nil
	})
	var work evalWork
	for _, w := range works {
		work.add(w)
	}
	return objs, work
}
