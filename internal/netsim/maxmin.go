package netsim

// maxMinFill water-fills the given flows on the remaining link capacities,
// setting each flow's rate to base(f) + its max-min share. remaining is
// consumed in place. Flows with an empty path are given an unbounded share
// by construction and must be excluded by the caller (Network never passes
// them in).
//
// Link charging is link-centric: when the common fill level rises by delta,
// each link is charged delta·(unfrozen flows on it) in ONE floating-point
// operation rather than one subtraction per flow. This is the arithmetic
// contract the grouped fill reproduces — both compute the same float
// sequence from the same integer link counts, which is what makes
// IncrementalMaxMin bit-identical to the per-flow test oracle built on
// this function (see grouped.go and the differential tests).
// Varys uses it globally for work-conserving backfill, where component
// decoupling is irrelevant (nothing caches Varys rates).
func maxMinFill(flows []*Flow, remaining []float64, base func(*Flow) float64) {
	if len(flows) == 0 {
		return
	}
	// unfrozenOnLink[l] = number of still-filling flows using link l.
	// Indexed slices (not maps) keep iteration order — and therefore
	// floating-point rounding — deterministic across runs.
	unfrozenOnLink := make([]int, len(remaining))
	for _, f := range flows {
		f.rate = base(f)
		for _, l := range f.path {
			unfrozenOnLink[int(l)]++
		}
	}
	frozen := make([]bool, len(flows))
	unfrozenCount := len(flows)
	level := 0.0 // current common fill level added on top of base rates

	for unfrozenCount > 0 {
		// Find the link that saturates first as the level rises.
		bottleneck := -1
		bottleneckLevel := 0.0
		for l, cnt := range unfrozenOnLink {
			if cnt == 0 {
				continue
			}
			lv := level + remaining[l]/float64(cnt)
			if bottleneck == -1 || lv < bottleneckLevel {
				bottleneck = l
				bottleneckLevel = lv
			}
		}
		if bottleneck == -1 {
			// No capacity-constrained links left (cannot happen on our
			// topology since every flow crosses two NICs), freeze at level.
			break
		}
		delta := bottleneckLevel - level
		// Raise every unfrozen flow by delta, then charge each link once
		// for all its unfrozen flows.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			f.rate += delta
		}
		for l, cnt := range unfrozenOnLink {
			if cnt == 0 {
				continue
			}
			remaining[l] -= delta * float64(cnt)
			if remaining[l] < 0 {
				remaining[l] = 0 // numerical dust
			}
		}
		level = bottleneckLevel
		// Freeze flows on the bottleneck link.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			for _, l := range f.path {
				if int(l) == bottleneck {
					frozen[i] = true
					unfrozenCount--
					for _, l2 := range f.path {
						unfrozenOnLink[int(l2)]--
					}
					break
				}
			}
		}
		remaining[bottleneck] = 0
		unfrozenOnLink[bottleneck] = 0
	}
}
