package netsim

// Snapshot support: CaptureState exports every piece of observable network
// state as plain serializable data. The export is used two ways: written
// into a snapshot for offline inspection (corralsnap), and recomputed after
// a deterministic replay to audit that the restored network is
// field-identical to the captured one. Tracer-dependent fields
// (Flow.lastRate, prevUtil) are deliberately excluded — tracing must never
// perturb a run, so it must never perturb a snapshot either — and so is
// the linkLoad scratch, which holds nothing between calls.

import "sort"

// FlowState is the serializable view of one in-flight flow. The completion
// callback and the raw link path are omitted: callbacks are closures, and
// the path is identified by the interned PathID (see PathIntern).
type FlowState struct {
	ID        int64
	Src, Dst  int
	Bytes     float64
	Coflow    CoflowID
	JobID     int
	CrossRack bool
	PathID    int32
	Remaining float64
	Rate      float64
	Canceled  bool
}

// PathIntern records one entry of the path-interning table: the encoded
// link path (4 little-endian bytes per LinkID, hex-printable via the
// snapshot JSON codec) and its dense id.
type PathIntern struct {
	Key []byte
	ID  int32
}

// JobBytes is one (jobID, bytes) cross-rack accounting entry.
type JobBytes struct {
	JobID int
	Bytes float64
}

// State is the complete serializable network state.
type State struct {
	Flows       []FlowState
	Caps        []float64
	Paths       []PathIntern // sorted by ID
	NumPaths    int32
	NextID      int64
	LastAdvance float64
	TotalCross  float64
	TotalBytes  float64
	FlowsServed int64
	CrossByJob  []JobBytes // sorted by JobID
	LinkBytes   []float64
}

// CaptureState exports the network's observable state. Flows appear in
// their internal (insertion) order, which is itself deterministic; the
// interning table and per-job accounting are sorted so the export never
// depends on map iteration order.
func (n *Network) CaptureState() *State {
	s := &State{
		Flows:       make([]FlowState, len(n.flows)),
		Caps:        append([]float64(nil), n.caps...),
		NumPaths:    n.numPaths,
		NextID:      n.nextID,
		LastAdvance: float64(n.lastAdvance),
		TotalCross:  n.totalCross,
		TotalBytes:  n.totalBytes,
		FlowsServed: n.flowsServed,
		LinkBytes:   append([]float64(nil), n.linkBytes...),
	}
	for i, f := range n.flows {
		s.Flows[i] = FlowState{
			ID:        f.ID,
			Src:       f.Src,
			Dst:       f.Dst,
			Bytes:     f.Bytes,
			Coflow:    f.Coflow,
			JobID:     f.JobID,
			CrossRack: f.CrossRack,
			PathID:    f.pathID,
			Remaining: f.remaining,
			Rate:      f.rate,
			Canceled:  f.canceled,
		}
	}
	s.Paths = make([]PathIntern, 0, n.numPaths)
	for id := int32(1); id <= n.numPaths; id++ {
		key := make([]byte, 0, 4*len(n.pathsByID[id]))
		for _, l := range n.pathsByID[id] {
			key = append(key, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
		}
		s.Paths = append(s.Paths, PathIntern{Key: key, ID: id})
	}
	s.CrossByJob = make([]JobBytes, 0, len(n.crossByJob))
	for j, b := range n.crossByJob {
		s.CrossByJob = append(s.CrossByJob, JobBytes{JobID: j, Bytes: b})
	}
	sort.Slice(s.CrossByJob, func(i, j int) bool { return s.CrossByJob[i].JobID < s.CrossByJob[j].JobID })
	return s
}
