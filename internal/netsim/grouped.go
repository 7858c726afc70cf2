package netsim

import "corral/internal/topology"

// grouped is the full max-min pass IncrementalMaxMin runs on a cold cache
// and on fallback rounds, and whose per-component fill it reuses for dirty
// components. It collapses flows sharing an identical link path (same
// Network-interned pathID) into one equivalence class before
// water-filling. On the two-level CLOS there are only O(racks²) distinct
// paths regardless of flow count — the execution engine's rack-aggregated
// shuffle transfers reuse a handful of paths per destination machine — so
// the fill loop runs over hundreds of groups instead of tens of thousands
// of flows.
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
// components by walking the link → group → link lists build fills, and
// each component is filled with its own level/accumulator against its own
// links only. A component's rates are therefore a pure function of its
// (path, member-count) multiset and its links' capacities — the invariant
// IncrementalMaxMin exploits to reuse cached rates for components whose
// inputs did not change. Within a component each fill level's bottleneck
// scan drops drained links from the component's link list (counts only
// fall within a round), so a level scans and charges only links that
// still carry unfrozen groups. Bottleneck ties break on the lowest link
// id, so the order links are listed in never shows in the rates.
//
// The scratch is keyed by pathID and link id, with round-stamping instead
// of clearing, so steady-state rounds do not allocate.
type grouped struct {
	// Per-pathID scratch, grown as new paths are interned. groupOf[id] is
	// only meaningful when gstamp[id] == round. paths[id] is the interned
	// link path of pathID id, written whenever the id forms a group, so it
	// also serves the cache's vanished-path rule the round after.
	groupOf []int32
	gstamp  []int32
	paths   [][]topology.LinkID
	groups  []pathGroup

	// Per-link scratch. cnt[l] (unfrozen member flows on link l),
	// linkGroups[l] (indices of groups whose path crosses l) and compOf[l]
	// (link l's component ordinal, -1 until the walk reaches it) are only
	// meaningful when cstamp[l] == round. used holds the links with any
	// members in first-seen order, so no pass scans the full link table.
	cnt        []int
	linkGroups [][]int32
	compOf     []int32
	cstamp     []int32
	used       []int

	// Per-component scratch, valid per round like cnt. Ordinals follow
	// the first used link of each component, so they are deterministic.
	// compLinks[c] lists component c's links in walk order until
	// fillComponent compacts it to the links still carrying unfrozen
	// groups; compGroups[c]/compRate[c] hold the component's group count
	// and final fill accumulator.
	compLinks  [][]int32
	compGroups []int32
	compRate   []float64
	numComps   int

	round int32
}

type pathGroup struct {
	id     int32 // interned pathID: the group's stable identity across rounds
	comp   int32 // component ordinal; -1 until partition labels it
	count  int   // member flows
	rate   float64
	frozen bool
}

// build groups the flows by interned pathID and recomputes the per-link
// member counts, group lists and used-link set. Round-stamped scratch
// keeps it allocation-free in the steady state.
//
//corral:hotpath
func (g *grouped) build(flows []*Flow, nLinks int) {
	g.round++
	if g.round < 0 { // stamp counter wrapped; invalidate all stamps
		for i := range g.gstamp {
			g.gstamp[i] = 0
		}
		for i := range g.cstamp {
			g.cstamp[i] = 0
		}
		g.round = 1
	}

	// Build equivalence classes in flow order (deterministic: the Network
	// iterates flows in start order).
	g.groups = g.groups[:0]
	for _, f := range flows {
		id := int(f.pathID)
		if id == 0 {
			panic("netsim: IncrementalMaxMin requires flows started via Network.StartPath (pathID unset)")
		}
		if id >= len(g.groupOf) {
			grow := id + 1 - len(g.groupOf)
			g.groupOf = append(g.groupOf, make([]int32, grow)...)
			g.gstamp = append(g.gstamp, make([]int32, grow)...)
			g.paths = append(g.paths, make([][]topology.LinkID, grow)...)
		}
		if g.gstamp[id] != g.round {
			g.gstamp[id] = g.round
			g.groupOf[id] = int32(len(g.groups))
			g.paths[id] = f.path
			g.groups = append(g.groups, pathGroup{id: f.pathID, comp: -1, count: 1})
		} else {
			g.groups[g.groupOf[id]].count++
		}
	}

	// Per-link unfrozen member counts, per-link group membership, and the
	// used-link list.
	if len(g.cnt) < nLinks {
		g.cnt = make([]int, nLinks)
		g.cstamp = make([]int32, nLinks)
		g.compOf = make([]int32, nLinks)
		lg := make([][]int32, nLinks)
		copy(lg, g.linkGroups) // keep already-grown member slices
		g.linkGroups = lg
	}
	g.used = g.used[:0]
	for gi := range g.groups {
		grp := &g.groups[gi]
		for _, l := range g.paths[grp.id] {
			li := int(l)
			if g.cstamp[li] != g.round {
				g.cstamp[li] = g.round
				g.cnt[li] = 0
				g.linkGroups[li] = g.linkGroups[li][:0]
				g.compOf[li] = -1
				g.used = append(g.used, li)
			}
			g.cnt[li] += grp.count
			g.linkGroups[li] = append(g.linkGroups[li], int32(gi))
		}
	}
}

// partition labels the connected components. Each used link not yet
// labelled (in used order, hence deterministic ordinals) seeds a walk
// over the link → group → link lists, with the component's own link list
// as the queue; every group and link reached joins the component.
//
//corral:hotpath
func (g *grouped) partition() {
	g.numComps = 0
	for _, seed := range g.used {
		if g.compOf[seed] >= 0 {
			continue
		}
		c := int32(g.numComps)
		if g.numComps == len(g.compLinks) {
			g.compLinks = append(g.compLinks, nil)
			g.compGroups = append(g.compGroups, 0)
			g.compRate = append(g.compRate, 0)
		}
		g.numComps++
		g.compGroups[c] = 0
		g.compOf[seed] = c
		links := append(g.compLinks[c][:0], int32(seed))
		for i := 0; i < len(links); i++ {
			for _, gi := range g.linkGroups[links[i]] {
				grp := &g.groups[gi]
				if grp.comp >= 0 {
					continue
				}
				grp.comp = c
				g.compGroups[c]++
				for _, l := range g.paths[grp.id] {
					if g.compOf[l] < 0 {
						g.compOf[l] = c
						links = append(links, int32(l))
					}
				}
			}
		}
		g.compLinks[c] = links
	}
}

// fillComponent water-fills one component's groups over its own links.
// Every unfrozen group has base rate 0 and receives the same delta at every
// level, so one shared accumulator (rateAcc, summed with exactly the
// reference's 0 + δ₁ + δ₂ + … operation order) stands in for all of them: a
// group's rate is the accumulator's value at the instant it freezes. The
// final accumulator is saved per component so groups left unfrozen (no
// constrained links, impossible on our topology but kept for parity with
// the reference's early break) pick it up in assignRates.
//
//corral:hotpath
func (g *grouped) fillComponent(ci int, remaining []float64) {
	live := g.compLinks[ci]
	unfrozen := int(g.compGroups[ci])
	level := 0.0
	rateAcc := 0.0
	for unfrozen > 0 {
		bottleneck := -1
		bottleneckLevel := 0.0
		w := 0
		for _, l32 := range live {
			l := int(l32)
			c := g.cnt[l]
			if c == 0 {
				continue
			}
			live[w] = l32
			w++
			lv := level + remaining[l]/float64(c)
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
			remaining[l] -= delta * float64(g.cnt[l])
			if remaining[l] < 0 {
				remaining[l] = 0 // numerical dust
			}
		}
		level = bottleneckLevel
		for _, gi := range g.linkGroups[bottleneck] {
			grp := &g.groups[gi]
			if grp.frozen {
				continue
			}
			grp.frozen = true
			grp.rate = rateAcc
			unfrozen--
			for _, l2 := range g.paths[grp.id] {
				g.cnt[int(l2)] -= grp.count
			}
		}
		remaining[bottleneck] = 0
		g.cnt[bottleneck] = 0
	}
	g.compRate[ci] = rateAcc
}

// assignRates copies group rates to member flows, giving groups that never
// froze their component's final accumulator (the reference's early-break
// behavior, per component).
//
//corral:hotpath
func (g *grouped) assignRates(flows []*Flow) {
	for gi := range g.groups {
		grp := &g.groups[gi]
		if !grp.frozen {
			grp.rate = g.compRate[grp.comp]
		}
	}
	for _, f := range flows {
		f.rate = g.groups[g.groupOf[int(f.pathID)]].rate
	}
}
