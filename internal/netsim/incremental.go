package netsim

// IncrementalMaxMin is the max-min fair allocator that emulates TCP (the
// paper's §6.6 "max-min fair bandwidth allocation mechanism"). Instead of
// re-waterfilling the whole network on every recompute, it diffs the
// current round's (path, member-count) groups and link capacities against
// a cache of the previous round and re-fills only the connected components
// whose inputs changed, copying cached rates into every clean component.
//
// Why that is bit-identical to a full pass: component filling is fully
// local (see grouped.go) — a component's rates are a pure function of its
// (path, count) group multiset and its links' capacities, computed with a
// deterministic float sequence. A component is marked dirty when any of
// those inputs could have changed:
//
//   - a link used this round carries a different capacity than cached
//     (link fault or repair);
//   - a group's member count differs from the cached count — covering new
//     groups (cached count 0), grown and shrunk groups;
//   - a path active last round vanished entirely; its links that are
//     still in use are marked per-link, because the vanished path may
//     have bridged components that are separate now (links no longer
//     used by anyone cannot influence any current component).
//
// If none of those fire for a component, its current group multiset and
// link capacities are provably identical to a component of the cached
// round (any group that could have joined or left it would have tripped a
// rule), so the cached per-group rates ARE the rates a full fill would
// compute. The seeded differential tests in incremental_test.go enforce
// the equivalence bit-for-bit against the per-flow oracle in
// export_test.go and against the full grouped pass on every round,
// across starts, cancels, link faults and flow pooling.
//
// When the dirty set exceeds a quarter of all groups the allocator runs
// the plain full grouped pass (same fill code, so trivially bit-identical)
// — diffing overhead is only paid when it buys real work reduction. The
// diff counts each component's groups as the component turns dirty and
// stops at the first rule application that crosses the threshold, since
// the dirty set only grows. The cache is rebuilt after every non-empty
// round either way.
//
// The cache is keyed by path IDs, which each Network assigns from 1, so
// it is only valid for the Network it was built on; Allocate drops it,
// and the per-pathID path table with it, when it sees another Network's
// capacity slice. An instance may therefore serve simulations run one
// after another, but never two running concurrently. The cache
// participates in snapshot/resume without serialization because restore
// replays the event history, rebuilding the cache through the same
// allocation sequence.
type IncrementalMaxMin struct {
	grouped

	// fallbackFrac is the dirty-group fraction above which Allocate
	// abandons the incremental path for the full grouped pass.
	// NewIncrementalMaxMin sets 0.25; tests tune it to force either path.
	fallbackFrac float64

	// Cache of the previous non-empty round, keyed by interned pathID.
	// prevCount[id] == 0 means the path was absent; a vanished path's
	// links come from grouped.paths, which still holds them. prevCaps is
	// refreshed only for links used in a round; stale entries are harmless
	// because a link that re-enters use always does so under a new or
	// changed group (see the dirty rules above). cacheCaps is the capacity
	// slice of the Network the cache was built on.
	prevCount []int
	prevRate  []float64
	prevIDs   []int32
	prevCaps  []float64
	cacheCaps []float64
	haveCache bool

	// compDirty is per-round scratch sized to numComps; it is complete
	// only in rounds that take the incremental path.
	compDirty []bool

	// incRounds/fullRounds count Allocate calls served by the incremental
	// path vs the full pass (including cache-cold rounds); tests use them
	// to prove the incremental path actually ran (anti-vacuity).
	incRounds  int
	fullRounds int
}

// NewIncrementalMaxMin returns a max-min allocator with the default 25%
// dirty-set fallback threshold.
func NewIncrementalMaxMin() *IncrementalMaxMin {
	return &IncrementalMaxMin{fallbackFrac: 0.25}
}

// Name implements Policy.
func (inc *IncrementalMaxMin) Name() string { return "maxmin-incremental" }

// Rounds reports how many Allocate calls took the incremental path and
// how many ran the full grouped pass (fallback or cold cache).
func (inc *IncrementalMaxMin) Rounds() (incremental, full int) {
	return inc.incRounds, inc.fullRounds
}

// Allocate implements Policy. Panics if any flow was constructed outside
// Network.StartPath (pathID 0): grouping needs the interned path identity.
//
// Steady state is allocation-free: all cache and scratch slices grow once
// and are reused, pinned by TestIncrementalAllocateSteadyStateZeroAlloc
// and the hotalloc analyzer.
//
//corral:hotpath
func (inc *IncrementalMaxMin) Allocate(flows []*Flow, caps []float64, scratch []float64) {
	g := &inc.grouped
	remaining := scratch
	copy(remaining, caps)
	if len(flows) == 0 {
		// Nothing to rate; the cache still describes the last non-empty
		// round and stays valid for the next diff (capacity changes made
		// meanwhile are caught by the caps rule then).
		return
	}
	if inc.haveCache && &caps[0] != &inc.cacheCaps[0] {
		// Another Network: its path IDs mean other paths.
		inc.haveCache = false
		clear(g.paths) // release the old Network's paths
	}
	g.build(flows, len(remaining))
	g.partition()

	if inc.haveCache && inc.markDirty(caps) {
		inc.incRounds++
		// Clean components: freeze every group at its cached rate, exactly
		// what a full fill would produce for identical inputs.
		for gi := range g.groups {
			grp := &g.groups[gi]
			if !inc.compDirty[grp.comp] {
				grp.frozen = true
				grp.rate = inc.prevRate[grp.id]
			}
		}
		// Dirty components re-fill from scratch; their links are disjoint
		// from every clean component's, so the shared remaining array
		// (still at raw caps for these links) gives the same arithmetic
		// as a full pass.
		for ci := 0; ci < g.numComps; ci++ {
			if inc.compDirty[ci] {
				g.fillComponent(ci, remaining)
			}
		}
	} else {
		inc.fullRounds++
		for ci := 0; ci < g.numComps; ci++ {
			g.fillComponent(ci, remaining)
		}
	}
	g.assignRates(flows)
	inc.updateCache(caps)
}

// markDirty applies the three dirty rules against the cache, adding a
// component's groups to the dirty count when the component first turns
// dirty. It reports whether the dirty groups stay within fallbackFrac of
// all groups, and returns false as soon as they exceed it: the dirty set
// only grows, so the rest of the diff cannot change the answer, and the
// full pass the caller then runs reads no dirty marks.
//
//corral:hotpath
func (inc *IncrementalMaxMin) markDirty(caps []float64) bool {
	g := &inc.grouped
	if len(inc.compDirty) < g.numComps {
		inc.compDirty = make([]bool, g.numComps)
	} else {
		for ci := 0; ci < g.numComps; ci++ {
			inc.compDirty[ci] = false
		}
	}
	limit := inc.fallbackFrac * float64(len(g.groups))
	dirtyGroups := 0

	// Rule: capacity changed on a used link. Stale prevCaps entries (link
	// unused in the cached round) at worst over-mark: such a link's
	// component is dirty via the new-group rule anyway.
	for _, l := range g.used {
		//corralvet:ok floateq exact identity intended: cached-capacity diff; near-equal capacities are real changes that must dirty the component
		if l < len(inc.prevCaps) && caps[l] == inc.prevCaps[l] {
			continue
		}
		if inc.markComp(g.compOf[l], &dirtyGroups, limit) {
			return false
		}
	}

	// Rule: group member count changed (covers new groups: cached 0).
	for gi := range g.groups {
		grp := &g.groups[gi]
		id := int(grp.id)
		if id < len(inc.prevCount) && inc.prevCount[id] == grp.count {
			continue
		}
		if inc.markComp(grp.comp, &dirtyGroups, limit) {
			return false
		}
	}

	// Rule: path vanished since the cached round. Mark its links that are
	// still in use — the vanished path may have bridged components that
	// are separate now, so each link dirties its own current component.
	for _, id32 := range inc.prevIDs {
		id := int(id32)
		if id < len(g.gstamp) && g.gstamp[id] == g.round {
			continue // still active
		}
		for _, l := range g.paths[id] {
			li := int(l)
			if g.cstamp[li] == g.round && inc.markComp(g.compOf[li], &dirtyGroups, limit) {
				return false
			}
		}
	}
	return true
}

// markComp marks component c dirty, adding its groups to *dirtyGroups the
// first time, and reports whether *dirtyGroups now exceeds limit.
func (inc *IncrementalMaxMin) markComp(c int32, dirtyGroups *int, limit float64) bool {
	if !inc.compDirty[c] {
		inc.compDirty[c] = true
		*dirtyGroups += int(inc.compGroups[c])
	}
	return float64(*dirtyGroups) > limit
}

// updateCache records this round's groups, rates and used-link capacities
// as the baseline for the next diff.
//
//corral:hotpath
func (inc *IncrementalMaxMin) updateCache(caps []float64) {
	g := &inc.grouped
	for _, id := range inc.prevIDs {
		inc.prevCount[id] = 0
	}
	inc.prevIDs = inc.prevIDs[:0]
	for gi := range g.groups {
		grp := &g.groups[gi]
		id := int(grp.id)
		if id >= len(inc.prevCount) {
			inc.prevCount = append(inc.prevCount, make([]int, id+1-len(inc.prevCount))...)
			inc.prevRate = append(inc.prevRate, make([]float64, id+1-len(inc.prevRate))...)
		}
		inc.prevCount[id] = grp.count
		inc.prevRate[id] = grp.rate
		inc.prevIDs = append(inc.prevIDs, grp.id)
	}
	if len(inc.prevCaps) < len(caps) {
		inc.prevCaps = append(inc.prevCaps, make([]float64, len(caps)-len(inc.prevCaps))...)
	}
	for _, l := range g.used {
		inc.prevCaps[l] = caps[l]
	}
	inc.cacheCaps = caps
	inc.haveCache = true
}
