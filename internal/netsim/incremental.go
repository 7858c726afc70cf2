package netsim

// IncrementalMaxMin is the max-min fair allocator that emulates TCP (the
// paper's §6.6 "max-min fair bandwidth allocation mechanism"). It keeps
// its path groups and their connected components between calls (see
// grouped.go) and re-fills only the components whose inputs changed.
//
// Each Allocate merges the flow list with the previous call's (ID, pathID)
// pairs. Both lists are in strictly increasing ID order (the Policy
// contract), so one linear merge finds exactly the flows that started and
// the flows that ended, and adjusts their groups' member counts. A group
// that appears or vanishes edits the per-link group lists and relabels
// only the components its links belonged to. A component is re-filled
// when any of its inputs could have changed:
//
//   - one of its groups changed member count;
//   - relabel built it, because a group appeared or vanished on one of
//     its links (which covers a vanished path that bridged components
//     that are separate now, and a new path merging two);
//   - one of its links carries a different capacity than the component
//     was last filled at (link fault or repair).
//
// Every other component has the same (path, count) multiset and link
// capacities as at its last fill, so the rates its groups still hold ARE
// the rates a full fill would compute: they stay in place. The seeded
// differential tests in incremental_test.go enforce the equivalence
// bit-for-bit against the per-flow oracle in export_test.go and against a
// pass that rebuilds the table on every call, across starts, cancels,
// link faults and flow pooling. A full pass is simply a call in which
// every component is re-filled, such as the first.
//
// The table is keyed by path IDs, which each Network assigns from 1, so
// it is only valid for the Network it was built on; Allocate empties it,
// and the per-pathID path table with it, when it sees another Network's
// capacity slice. An instance may therefore serve simulations run one
// after another, but never two running concurrently. The table
// participates in snapshot/resume without serialization because restore
// replays the event history, rebuilding it through the same allocation
// sequence.
type IncrementalMaxMin struct {
	grouped

	// prev and next hold the (ID, pathID) pairs of the previous call's
	// flows and of the current one's, swapped after every merge. caps is
	// the capacity slice of the Network the table was built on.
	prev, next []flowKey
	caps       []float64

	// incRounds/fullRounds count Allocate calls that kept at least one
	// component's rates vs calls that re-filled every component; tests
	// use them to prove the incremental path actually ran
	// (anti-vacuity).
	incRounds  int
	fullRounds int
}

// flowKey is what Allocate remembers of a flow between calls.
type flowKey struct {
	id   int64
	path int32
}

// NewIncrementalMaxMin returns a max-min allocator with an empty table.
func NewIncrementalMaxMin() *IncrementalMaxMin { return &IncrementalMaxMin{} }

// Name implements Policy.
func (inc *IncrementalMaxMin) Name() string { return "maxmin-incremental" }

// Rounds reports how many Allocate calls kept at least one component's
// rates and how many re-filled every component.
func (inc *IncrementalMaxMin) Rounds() (incremental, full int) {
	return inc.incRounds, inc.fullRounds
}

// Allocate implements Policy. It panics if any flow was constructed
// outside Network.StartPath (pathID 0), since grouping needs the interned
// path identity, and if the flows are not in strictly increasing ID order
// or an ID changed its path, since the merge relies on both.
//
// Steady state is allocation-free: all table and scratch slices grow once
// and are reused, pinned by TestIncrementalAllocateSteadyStateZeroAlloc
// and the hotalloc analyzer.
//
//corral:hotpath
func (inc *IncrementalMaxMin) Allocate(flows []*Flow, caps []float64, scratch []float64) {
	g := &inc.grouped
	if len(caps) > 0 && (len(inc.caps) == 0 || &caps[0] != &inc.caps[0]) {
		// First call, or another Network: its path IDs mean other paths.
		g.reset(len(caps))
		inc.prev = inc.prev[:0]
		inc.caps = caps
	}
	inc.merge(flows)
	g.applyChanges()

	kept := false
	for c := range g.comps {
		comp := &g.comps[c]
		if !comp.inUse {
			continue
		}
		if !comp.dirty && !g.capsChanged(c, caps) {
			kept = true
			continue
		}
		g.fillComponent(c, caps, scratch)
	}
	if kept {
		inc.incRounds++
	} else {
		inc.fullRounds++
	}
	for _, f := range flows {
		f.rate = g.groups[f.pathID].rate
	}
}

// merge walks flows alongside the previous call's flow keys, both in
// increasing ID order: an ID only in flows started since (its group gains
// a member), an ID only in prev ended since (its group loses one).
//
//corral:hotpath
func (inc *IncrementalMaxMin) merge(flows []*Flow) {
	g := &inc.grouped
	prev, next := inc.prev, inc.next[:0]
	i := 0
	for j, f := range flows {
		if f.pathID == 0 {
			panic("netsim: IncrementalMaxMin requires flows started via Network.StartPath (pathID unset)")
		}
		if j > 0 && f.ID <= flows[j-1].ID {
			panic("netsim: IncrementalMaxMin requires flows in strictly increasing ID order")
		}
		for i < len(prev) && prev[i].id < f.ID {
			g.adjust(prev[i].path, nil, -1)
			i++
		}
		if i < len(prev) && prev[i].id == f.ID {
			if prev[i].path != f.pathID {
				panic("netsim: IncrementalMaxMin requires a flow ID to keep one path")
			}
			i++
		} else {
			g.adjust(f.pathID, f.path, +1)
		}
		next = append(next, flowKey{id: f.ID, path: f.pathID})
	}
	for ; i < len(prev); i++ {
		g.adjust(prev[i].path, nil, -1)
	}
	inc.prev, inc.next = next, prev
}
