package netsim

import "math"

// IncrementalMaxMin is the max-min fair allocator that emulates TCP (the
// paper's §6.6 "max-min fair bandwidth allocation mechanism"). It keeps
// its path groups and their connected components between calls (see
// grouped.go) and re-fills only the components whose inputs changed.
//
// Each Allocate merges the flow list with the previous call's flows. Both
// lists are in strictly increasing ID order and an active flow keeps one
// *Flow object (the Policy contract), so the flows whose ID is not above
// the previous call's last ID are survivors, matched by pointer against
// the previous list without being read; only the new flows after them are
// dereferenced. The merge adjusts the member counts of the groups whose
// flows started or ended. An appearing group merges its links' components
// and a vanishing group splits its component only where it disconnects
// it (see grouped.go). A component is re-filled when any of its inputs
// could have changed:
//
//   - one of its groups appeared, vanished or changed member count;
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

	// keys holds the last call's flows with their pathIDs, in list
	// order, and lastID the ID of its last flow. caps is the capacity
	// slice of the Network the table was built on.
	keys   []flowKey
	lastID int64
	caps   []float64

	// incRounds/fullRounds count Allocate calls that kept at least one
	// component's rates vs calls that re-filled every component; tests
	// use them to prove the incremental path actually ran
	// (anti-vacuity).
	incRounds  int
	fullRounds int
}

// flowKey is what Allocate remembers of a flow between calls. The path is
// kept beside the pointer because a pooled Flow object that ended may
// already carry another flow's path.
type flowKey struct {
	f    *Flow
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

// Allocate implements Policy. It panics if a new flow was constructed
// outside Network.StartPath (pathID 0), since grouping needs the interned
// path identity, and if the flows are not in strictly increasing ID order
// or an active ID comes as another *Flow object, since the merge relies
// on both.
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
		clear(inc.keys[:cap(inc.keys)]) // release the old Network's flows
		inc.keys = inc.keys[:0]
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
	for _, key := range inc.keys {
		key.f.rate = g.groups[key.path].rate
	}
}

// merge matches flows against the previous call's keys. The flows after
// the last one whose ID is not above the previous last ID are new: each
// adds a member to its group. The ones before it are survivors and must
// appear among the keys in the same order, as the same objects; a key
// they skip is a flow that ended, and its group loses a member. The keys
// are rewritten in place into this call's.
//
//corral:hotpath
func (inc *IncrementalMaxMin) merge(flows []*Flow) {
	g := &inc.grouped
	keys := inc.keys
	last := int64(math.MinInt64)
	k := 0
	if len(keys) > 0 {
		last = inc.lastID
		k = len(flows)
		for k > 0 && flows[k-1].ID > last {
			k--
		}
	}
	// Until the first ended flow, survivors sit where they sat.
	w := 0
	for w < min(k, len(keys)) && flows[w] == keys[w].f {
		w++
	}
	for _, key := range keys[w:] {
		if w < k && flows[w] == key.f {
			keys[w] = key
			w++
		} else {
			g.adjust(key.path, nil, -1)
		}
	}
	if w < k {
		panic("netsim: IncrementalMaxMin requires flows in strictly increasing ID order, each active ID as one *Flow object")
	}
	keys = keys[:w]
	for _, f := range flows[k:] {
		if f.pathID == 0 {
			panic("netsim: IncrementalMaxMin requires flows started via Network.StartPath (pathID unset)")
		}
		if f.ID <= last {
			panic("netsim: IncrementalMaxMin requires flows in strictly increasing ID order")
		}
		last = f.ID
		g.adjust(f.pathID, f.path, +1)
		keys = append(keys, flowKey{f: f, path: f.pathID})
	}
	if len(flows) > 0 {
		inc.lastID = flows[len(flows)-1].ID // read already, by the scan or the loop above
	}
	inc.keys = keys
}
