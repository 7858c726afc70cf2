package netsim

// MaxMinFair allocates link bandwidth by progressive filling (water
// filling), the standard emulation of long-lived TCP flows: all flows'
// rates rise together until some link saturates; that link's flows freeze
// at their current rate and filling continues on the rest.
//
// It is the differential oracle for IncrementalMaxMin, the production
// allocator: the straightforward per-flow fill, kept in test code and
// exported here for the runtime-level differential test in package
// netsim_test.
//
// Filling is component-local: the link–flow graph is first partitioned
// into connected components (flows sharing no link, directly or
// transitively, cannot influence each other's max-min share) and each
// component is water-filled independently with its own fill level. The
// rates are the same max-min fixpoint a single global fill computes, but
// the floating-point operation sequence of one component never depends on
// another component's bottleneck events — the arithmetic locality
// IncrementalMaxMin relies on to reuse cached rates for untouched
// components bit-exactly (see incremental.go).
type MaxMinFair struct{}

// Name implements Policy.
func (MaxMinFair) Name() string { return "maxmin" }

// Allocate implements Policy.
func (MaxMinFair) Allocate(flows []*Flow, caps []float64, scratch []float64) {
	remaining := scratch
	copy(remaining, caps)
	if len(flows) == 0 {
		return
	}

	// Union links that share a flow; each union-find root identifies one
	// connected component. Components touch disjoint link sets, so filling
	// them in any order against the shared remaining array is exact.
	parent := make([]int, len(remaining))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, f := range flows {
		r0 := find(int(f.path[0]))
		for _, l := range f.path[1:] {
			r := find(int(l))
			if r != r0 {
				parent[r] = r0
			}
		}
	}

	// Bucket flows per component in first-seen flow order, preserving the
	// caller's flow order inside each bucket (determinism: the Network
	// iterates flows in start order).
	roots := make([]int, 0, 8)
	buckets := make(map[int][]*Flow, 8)
	for _, f := range flows {
		r := find(int(f.path[0]))
		if _, ok := buckets[r]; !ok {
			roots = append(roots, r)
		}
		buckets[r] = append(buckets[r], f)
	}
	for _, r := range roots {
		maxMinFill(buckets[r], remaining, func(f *Flow) float64 { return 0 })
	}
}
