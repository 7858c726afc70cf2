package netsim

import "corral/internal/topology"

// grouped is the persistent group and component table IncrementalMaxMin
// keeps between calls, and the per-component water-fill it runs on the
// components whose inputs changed. It collapses flows sharing an
// identical link path (same Network-interned pathID) into one equivalence
// class before water-filling. On the two-level CLOS there are only
// O(racks²) distinct paths regardless of flow count — the execution
// engine's rack-aggregated shuffle transfers reuse a handful of paths per
// destination machine — so the fill loop runs over hundreds of groups
// instead of tens of thousands of flows.
//
// Equivalence contract: rates are bit-identical to the per-flow
// progressive-filling oracle in export_test.go. Flows in one class are
// indistinguishable to progressive filling (same links, same freeze
// instant), and maxMinFill charges links with one aggregated delta·count
// operation per link per level, which is exactly the arithmetic performed
// here on group counts. Each member flow's rate in the reference is the
// same sum 0 + δ₁ + δ₂ + … accumulated below per group. The seeded
// differential tests enforce this bit-for-bit.
//
// Filling is component-local: used links are partitioned into connected
// components of the link → group → link graph, and each component is
// filled with its own level/accumulator against its own links only. A
// component's rates are therefore a pure function of its (path,
// member-count) multiset and its links' capacities — the invariant
// IncrementalMaxMin exploits to leave a component's rates in place while
// those inputs stay unchanged. Within a component each fill level's
// bottleneck scan drops drained links from the working link list (counts
// only fall within a fill), so a level scans and charges only links that
// still carry unfrozen groups. Bottleneck ties break on the lowest link
// id, and freezing a group writes the same accumulator value whatever
// order the groups are met in, so neither the order of groups nor the
// order of links ever shows in the rates.
//
// The table is only edited where the group set changes: a group that
// appears or vanishes updates its links' group lists and dissolves the
// components containing them, and relabel re-walks just those links.
// Every other component keeps its label, its lists and its groups' rates.
type grouped struct {
	// Per-pathID group table, grown as new paths are interned; a path
	// forms a group while its count is positive. paths[id] is the
	// interned link path of pathID id, written whenever a flow on it
	// starts, so a vanishing group still finds its links.
	groups  []pathGroup
	paths   [][]topology.LinkID
	changed []int32 // pathIDs whose count moved during the current merge

	// Per-link state. base[l] is the member-flow count of all groups
	// crossing l, linkGroups[l] lists those groups' pathIDs in no
	// particular order, compOf[l] is l's component slot (-1 while no
	// group crosses l), and capAt[l] is the capacity l was last filled
	// at. cnt[l] is the fill's unfrozen member count, valid only inside
	// fillComponent.
	base       []int32
	cnt        []int32
	linkGroups [][]int32
	compOf     []int32
	capAt      []float64

	// Component slots. A dissolved slot goes on free and is reused by the
	// next component relabel creates. seeds collects the links relabel
	// must walk from; live is fillComponent's working link list.
	comps []component
	free  []int32
	seeds []int32
	live  []int32
}

type pathGroup struct {
	rate   float64 // the group's rate since its component's last fill
	count  int32   // member flows
	was    int32   // count before the current merge; valid while moved
	comp   int32   // component slot; -1 while unlabelled
	frozen bool    // fill scratch
	moved  bool    // listed in changed
}

// component is one connected component of used links. links and groups
// list its members in walk order; dirty marks a component whose group
// counts changed or that relabel just built.
type component struct {
	links  []int32
	groups []int32
	inUse  bool
	dirty  bool
}

// reset empties the table for a network with nLinks links, keeping every
// slice's capacity.
func (g *grouped) reset(nLinks int) {
	if len(g.base) < nLinks {
		g.base = make([]int32, nLinks)
		g.cnt = make([]int32, nLinks)
		g.compOf = make([]int32, nLinks)
		g.capAt = make([]float64, nLinks)
		lg := make([][]int32, nLinks)
		copy(lg, g.linkGroups) // keep already-grown member slices
		g.linkGroups = lg
	}
	clear(g.base)
	for l := range g.compOf {
		g.compOf[l] = -1
		g.linkGroups[l] = g.linkGroups[l][:0]
	}
	clear(g.groups)
	clear(g.paths) // release the old Network's paths
	g.changed = g.changed[:0]
	g.free = g.free[:0]
	for c := range g.comps {
		g.comps[c].inUse = false
		g.free = append(g.free, int32(c))
	}
}

// adjust adds d member flows to the group of pathID id, whose link path is
// path, recording the group's count before the merge the first time it
// moves.
//
//corral:hotpath
func (g *grouped) adjust(id int32, path []topology.LinkID, d int32) {
	if int(id) >= len(g.groups) {
		grow := int(id) + 1 - len(g.groups)
		g.groups = append(g.groups, make([]pathGroup, grow)...)
		g.paths = append(g.paths, make([][]topology.LinkID, grow)...)
	}
	grp := &g.groups[id]
	if !grp.moved {
		grp.moved = true
		grp.was = grp.count
		g.changed = append(g.changed, id)
	}
	grp.count += d
	if path != nil {
		g.paths[id] = path
	}
}

// applyChanges folds the merge's count changes into the table. A group
// whose count moved but stayed positive dirties its component. A group
// that appeared or vanished edits its links' group lists and dissolves
// every component one of its links belonged to; relabel then rebuilds
// those links' components. A group whose count ended where it started
// (one member left, another joined) changes nothing.
//
//corral:hotpath
func (g *grouped) applyChanges() {
	for _, id := range g.changed {
		grp := &g.groups[id]
		grp.moved = false
		d := grp.count - grp.was
		if d == 0 {
			continue
		}
		path := g.paths[id]
		for _, l := range path {
			g.base[l] += d
		}
		switch {
		case grp.was == 0: // appeared
			grp.comp = -1
			for _, l := range path {
				g.linkGroups[l] = append(g.linkGroups[l], id)
				g.dissolve(g.compOf[l])
				g.seeds = append(g.seeds, int32(l))
			}
		case grp.count == 0: // vanished
			for _, l := range path {
				lg := g.linkGroups[l]
				for i, other := range lg {
					if other == id {
						lg[i] = lg[len(lg)-1]
						g.linkGroups[l] = lg[:len(lg)-1]
						break
					}
				}
				g.dissolve(g.compOf[l])
			}
		case grp.comp >= 0: // resized in a component that stays
			g.comps[grp.comp].dirty = true
		}
		// A resized group in an already dissolved component (comp -1) is
		// picked up by relabel like the rest of that component.
	}
	g.changed = g.changed[:0]
	g.relabel()
}

// dissolve frees component c (no-op for -1): its links lose their label
// and become relabel seeds, and its groups become unlabelled.
//
//corral:hotpath
func (g *grouped) dissolve(c int32) {
	if c < 0 {
		return
	}
	comp := &g.comps[c]
	for _, l := range comp.links {
		g.compOf[l] = -1
	}
	g.seeds = append(g.seeds, comp.links...)
	for _, id := range comp.groups {
		g.groups[id].comp = -1
	}
	comp.inUse = false
	g.free = append(g.free, c)
}

// relabel builds a component from every seed link that some group still
// crosses and that no walk has labelled yet, walking the link → group →
// link lists with the component's own link list as the queue. A walk only
// meets unlabelled links and groups: a group crossing a link of a
// component that was not dissolved had all its links in that component
// before the merge, and if it appeared in this merge its links dissolved
// that component.
//
//corral:hotpath
func (g *grouped) relabel() {
	for _, seed := range g.seeds {
		if g.compOf[seed] >= 0 || len(g.linkGroups[seed]) == 0 {
			continue
		}
		var c int32
		if n := len(g.free); n > 0 {
			c = g.free[n-1]
			g.free = g.free[:n-1]
		} else {
			c = int32(len(g.comps))
			g.comps = append(g.comps, component{})
		}
		comp := &g.comps[c]
		g.compOf[seed] = c
		links := append(comp.links[:0], seed)
		groups := comp.groups[:0]
		for i := 0; i < len(links); i++ {
			for _, id := range g.linkGroups[links[i]] {
				grp := &g.groups[id]
				if grp.comp >= 0 {
					continue
				}
				grp.comp = c
				groups = append(groups, id)
				for _, l := range g.paths[id] {
					if g.compOf[l] < 0 {
						g.compOf[l] = c
						links = append(links, int32(l))
					}
				}
			}
		}
		comp.links, comp.groups = links, groups
		comp.inUse, comp.dirty = true, true
	}
	g.seeds = g.seeds[:0]
}

// capsChanged reports whether any of component c's links now has a
// capacity other than the one it was last filled at.
//
//corral:hotpath
func (g *grouped) capsChanged(c int, caps []float64) bool {
	for _, l := range g.comps[c].links {
		//corralvet:ok floateq exact identity intended: cached-capacity diff; near-equal capacities are real changes that must refill the component
		if caps[l] != g.capAt[l] {
			return true
		}
	}
	return false
}

// fillComponent water-fills component c's groups over its own links,
// starting from their capacities. Every unfrozen group has base rate 0
// and receives the same delta at every level, so one shared accumulator
// (rateAcc, summed with exactly the reference's 0 + δ₁ + δ₂ + … operation
// order) stands in for all of them: a group's rate is the accumulator's
// value at the instant it freezes. Groups left unfrozen (no constrained
// links, impossible on our topology but kept for parity with the
// reference's early break) get the final accumulator.
//
//corral:hotpath
func (g *grouped) fillComponent(c int, caps, remaining []float64) {
	comp := &g.comps[c]
	comp.dirty = false
	for _, l := range comp.links {
		g.cnt[l] = g.base[l]
		remaining[l] = caps[l]
		g.capAt[l] = caps[l]
	}
	for _, id := range comp.groups {
		g.groups[id].frozen = false
	}
	live := append(g.live[:0], comp.links...)
	unfrozen := len(comp.groups)
	level := 0.0
	rateAcc := 0.0
	for unfrozen > 0 {
		bottleneck := -1
		bottleneckLevel := 0.0
		w := 0
		for _, l32 := range live {
			l := int(l32)
			n := g.cnt[l]
			if n == 0 {
				continue
			}
			live[w] = l32
			w++
			lv := level + remaining[l]/float64(n)
			// The lowest link id wins a tie, as in the reference's
			// full-table scan, whatever order the links are listed in.
			//corralvet:ok floateq exact identity intended: bit-equal fill levels are a tie broken by link id; any difference, however small, picks the lower level
			if bottleneck == -1 || lv < bottleneckLevel || lv == bottleneckLevel && l < bottleneck {
				bottleneck = l
				bottleneckLevel = lv
			}
		}
		live = live[:w]
		if bottleneck == -1 {
			break
		}
		delta := bottleneckLevel - level
		rateAcc += delta
		for _, l32 := range live {
			l := int(l32)
			// The conversion keeps the product rounded on its own: no
			// fused multiply-subtract, on any architecture.
			remaining[l] -= float64(delta * float64(g.cnt[l]))
			if remaining[l] < 0 {
				remaining[l] = 0 // numerical dust
			}
		}
		level = bottleneckLevel
		for _, id := range g.linkGroups[bottleneck] {
			grp := &g.groups[id]
			if grp.frozen {
				continue
			}
			grp.frozen = true
			grp.rate = rateAcc
			unfrozen--
			for _, l2 := range g.paths[id] {
				g.cnt[int(l2)] -= grp.count
			}
		}
		remaining[bottleneck] = 0
		g.cnt[bottleneck] = 0
	}
	g.live = live[:0]
	if unfrozen > 0 {
		for _, id := range comp.groups {
			if grp := &g.groups[id]; !grp.frozen {
				grp.rate = rateAcc
			}
		}
	}
}
