package runtime

import (
	"slices"

	"corral/internal/snapshot"
)

// locIndex is one stage's locality buckets over one key space (machines
// or racks): for each key, the pending map tasks that prefer it, in push
// order. It replaces a map[int][]*mapTask with three pointer-free arrays:
// keys sorted ascending, spans parallel with keys, and one backing array
// of task indexes into stageExec.maps that every bucket is a range of.
// startStage and recoverStage build it exact-sized from the stage's
// pushes (locBuilder); a requeue appends to a bucket's range, moving
// the range to the end of the backing array when it is full.
//
// A key has three states, which captureQueues tells apart: absent (never
// pushed, or emptied by pop's discard loop: n == locDeleted), present
// but empty (its last live task was popped), or holding entries. Entries
// are never removed except by pop, so a bucket may hold tasks already
// assigned through another bucket; pop discards those lazily.
type locIndex struct {
	keys  []int32
	spans []locSpan
	tasks []int32
}

// locSpan is one bucket: tasks[off : off+n], with room up to off+cap.
type locSpan struct {
	off, n, cap int32
}

// locDeleted marks a bucket that pop emptied: the key reads as absent
// until a push revives it.
const locDeleted = -1

// pop returns the newest unassigned task of key's bucket, discarding the
// assigned entries above it, or nil. A bucket the discard loop empties
// is deleted; one emptied by returning its last task stays present.
//
//corral:hotpath
func (ix *locIndex) pop(key int, maps []*mapTask) *mapTask {
	i, ok := slices.BinarySearch(ix.keys, int32(key))
	if !ok {
		return nil
	}
	s := &ix.spans[i]
	if s.n == locDeleted {
		return nil
	}
	for s.n > 0 {
		s.n--
		if t := maps[ix.tasks[s.off+s.n]]; !t.assigned {
			return t
		}
	}
	s.n = locDeleted
	return nil
}

// push appends task to key's bucket, creating or reviving the bucket.
func (ix *locIndex) push(key int, task int) {
	i, ok := slices.BinarySearch(ix.keys, int32(key))
	if !ok {
		ix.keys = slices.Insert(ix.keys, i, int32(key))
		ix.spans = slices.Insert(ix.spans, i, locSpan{off: int32(len(ix.tasks))})
	}
	s := &ix.spans[i]
	if s.n == locDeleted {
		s.n = 0
	}
	if s.n == s.cap {
		ix.grow(s)
	}
	ix.tasks[s.off+s.n] = int32(task)
	s.n++
}

// grow doubles a full bucket's room: in place when the bucket ends the
// backing array, otherwise by moving its entries to the end.
func (ix *locIndex) grow(s *locSpan) {
	c := max(2*s.cap, 1)
	if int(s.off+s.cap) != len(ix.tasks) {
		off := int32(len(ix.tasks))
		ix.tasks = append(ix.tasks, ix.tasks[s.off:s.off+s.n]...)
		s.off, s.cap = off, s.n
	}
	ix.tasks = append(ix.tasks, make([]int32, c-s.cap)...)
	s.cap = c
}

// captureQueues exports the buckets sorted by key, present-but-empty ones
// included with nil Tasks. Stale entries (tasks already assigned through
// another bucket, awaiting lazy cleanup) are included: future pops depend
// on them.
func (ix *locIndex) captureQueues() []snapshot.TaskQueue {
	out := make([]snapshot.TaskQueue, 0, len(ix.keys))
	for i, k := range ix.keys {
		s := ix.spans[i]
		if s.n == locDeleted {
			continue
		}
		tq := snapshot.TaskQueue{Key: int(k)}
		for _, ti := range ix.tasks[s.off : s.off+s.n] {
			tq.Tasks = append(tq.Tasks, int(ti))
		}
		out = append(out, tq)
	}
	return out
}

// locPush is one pending (key, task index) push into a locality index.
type locPush struct{ key, task int32 }

// locBuilder is the runtime's scratch for building a stage's two indexes
// exact-sized: startStage and recoverStage record their pushes in order,
// then build counts them per key and lays the buckets out. count is
// indexed by key (machines or racks) and is all zeros between builds.
type locBuilder struct {
	machine, rack []locPush
	count         []int32
	keys          []int32
}

// add records that task prefers machine m (and so m's rack).
func (b *locBuilder) add(m, rack, task int) {
	b.machine = append(b.machine, locPush{int32(m), int32(task)})
	b.rack = append(b.rack, locPush{int32(rack), int32(task)})
}

// build installs the recorded pushes as st's indexes, bucket contents in
// push order, and resets the scratch.
func (b *locBuilder) build(st *stageExec, machines int) {
	if len(b.count) < machines {
		b.count = make([]int32, machines)
	}
	st.byMachine = b.index(b.machine)
	st.byRack = b.index(b.rack)
	b.machine, b.rack = b.machine[:0], b.rack[:0]
}

// index lays pushes out as one locIndex: a counting pass over the keys,
// sorted keys, one range per key, then the tasks in push order.
func (b *locBuilder) index(pushes []locPush) locIndex {
	b.keys = b.keys[:0]
	for _, p := range pushes {
		if b.count[p.key] == 0 {
			b.keys = append(b.keys, p.key)
		}
		b.count[p.key]++
	}
	slices.Sort(b.keys)
	ix := locIndex{
		keys:  slices.Clone(b.keys),
		spans: make([]locSpan, len(b.keys)),
		tasks: make([]int32, len(pushes)),
	}
	off := int32(0)
	for i, k := range ix.keys {
		ix.spans[i] = locSpan{off: off, cap: b.count[k]}
		off += b.count[k]
		b.count[k] = int32(i) // from here on: the key's position
	}
	for _, p := range pushes {
		s := &ix.spans[b.count[p.key]]
		ix.tasks[s.off+s.n] = p.task
		s.n++
	}
	for _, k := range ix.keys {
		b.count[k] = 0
	}
	return ix
}
