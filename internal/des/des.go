// Package des implements a minimal deterministic discrete-event simulation
// core: a virtual clock and a time-ordered event queue.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO), which keeps simulations deterministic regardless of map
// iteration order elsewhere in the program.
//
// Event storage: an event lives in a node of a slab, and the queue is a
// binary heap of (time, sequence, slot) entries over it. A node goes back
// on a free list the moment its entry is popped, whether the event fires
// or was canceled, and the next At reuses it, so a steady-state run
// schedules events without allocating. At and After return a Handle, a
// small value naming the node's slot, the node's generation and the
// event's time. Releasing a node bumps its generation, so a Handle of an
// event that already fired or was popped canceled is stale: Cancel
// ignores it, even after the node has been reused for a later event.
//
// Determinism obligations: a run is a pure function of the sequence of
// Schedule calls — no wall-clock time, no randomness, no map iteration.
// Callers inherit the obligation to schedule events in a deterministic
// order.
package des

import (
	"fmt"
	"sort"
)

// Time is simulation time in seconds.
type Time float64

// Handle names one scheduled event. The zero Handle means "not armed":
// no event was ever scheduled through it.
type Handle struct {
	at   Time
	slot int32
	gen  uint32 // the node's generation at scheduling; 0 only in the zero Handle
}

// At reports the time the event is (or was) scheduled to fire.
func (h Handle) At() Time { return h.at }

// Armed reports whether h names an event, i.e. is not the zero Handle. It
// stays true after the event fires or is canceled.
func (h Handle) Armed() bool { return h.gen != 0 }

// node is one event's slab entry. gen counts the node's releases (from 1,
// skipping 0 on wrap-around), so a Handle matches only while its event is
// queued.
type node struct {
	fn       func()
	gen      uint32
	canceled bool
}

// entry is one queued event: its ordering key and its node.
type entry struct {
	at   Time
	seq  uint64 // tie-break: FIFO among events at the same instant
	slot int32
}

// less orders entries by time, then by scheduling order.
func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Simulator owns the virtual clock and the pending event set.
// The zero value is not usable; call New.
type Simulator struct {
	now   Time
	seq   uint64
	queue []entry // binary min-heap by less
	nodes []node
	free  []int32 // released node slots, reused last-in first-out
	fired uint64
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far; useful for
// instrumentation and runaway detection in tests.
func (s *Simulator) Fired() uint64 { return s.fired }

// At schedules fn to run at absolute time at and returns the event's
// Handle. Scheduling in the past (before Now) panics: it always indicates
// a modelling bug, and silently clamping would hide it.
//
//corral:hotpath
func (s *Simulator) At(at Time, fn func()) Handle {
	if at < s.now {
		s.pastPanic(at)
	}
	slot := s.acquire(fn)
	s.push(entry{at: at, seq: s.seq, slot: slot})
	s.seq++
	return Handle{at: at, slot: slot, gen: s.nodes[slot].gen}
}

// pastPanic reports an event scheduled before now.
func (s *Simulator) pastPanic(at Time) {
	panic(fmt.Sprintf("des: scheduling event at %v before now %v", at, s.now))
}

// After schedules fn to run d seconds from now.
//
//corral:hotpath
func (s *Simulator) After(d Time, fn func()) Handle {
	return s.At(s.now+d, fn)
}

// acquire takes a node off the free list, or grows the slab when the list
// is empty, and binds fn to it.
//
//corral:hotpath
func (s *Simulator) acquire(fn func()) int32 {
	var slot int32
	if k := len(s.free) - 1; k >= 0 {
		slot = s.free[k]
		s.free = s.free[:k]
	} else {
		slot = int32(len(s.nodes))
		s.nodes = append(s.nodes, node{gen: 1})
	}
	s.nodes[slot].fn = fn
	return slot
}

// release returns a popped event's node to the free list. The generation
// bump makes every Handle of the event stale.
//
//corral:hotpath
func (s *Simulator) release(slot int32) {
	n := &s.nodes[slot]
	n.fn = nil
	n.canceled = false
	if n.gen++; n.gen == 0 {
		n.gen = 1
	}
	s.free = append(s.free, slot)
}

// Cancel prevents h's event from firing. Canceling the zero Handle, or an
// event that already fired or was canceled, is a no-op.
func (s *Simulator) Cancel(h Handle) {
	if h.gen != 0 && s.nodes[h.slot].gen == h.gen {
		s.nodes[h.slot].canceled = true
	}
}

// Scheduled reports whether h's event is still queued to fire: armed,
// not yet fired and not canceled.
func (s *Simulator) Scheduled(h Handle) bool {
	return h.gen != 0 && s.nodes[h.slot].gen == h.gen && !s.nodes[h.slot].canceled
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false when no events remain. The event's node is released
// before its callback runs, so the callback may reuse it.
//
//corral:hotpath
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		e := s.pop()
		n := &s.nodes[e.slot]
		fn, canceled := n.fn, n.canceled
		s.release(e.slot)
		if canceled {
			continue
		}
		s.now = e.at
		s.fired++
		fn()
		return true
	}
	return false
}

// push adds e to the heap. It sifts up exactly as container/heap's Push
// does: (at, seq) orders events totally, except for a NaN time, which
// then still pops where container/heap would put it.
//
//corral:hotpath
func (s *Simulator) push(e entry) {
	s.queue = append(s.queue, e)
	q := s.queue
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !less(&q[j], &q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes and returns the heap's minimum, sifting down as
// container/heap's Pop does.
//
//corral:hotpath
func (s *Simulator) pop() entry {
	q := s.queue
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && less(&q[j2], &q[j1]) {
			j = j2 // right child
		}
		if !less(&q[j], &q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	e := q[n]
	s.queue = q[:n]
	return e
}

// Run fires events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// Seq returns the total number of events ever scheduled — the next event's
// FIFO tie-break sequence number.
func (s *Simulator) Seq() uint64 { return s.seq }

// EventInfo is a snapshot-friendly view of one pending event: its firing
// time and FIFO sequence number, but not its (unserializable) callback.
type EventInfo struct {
	At       Time
	Seq      uint64
	Canceled bool
}

// PendingEvents returns every queued event — including canceled entries
// that have not been popped yet — sorted by (At, Seq). It never mutates
// the heap, so it is safe to call between Steps of a run that will
// continue.
func (s *Simulator) PendingEvents() []EventInfo {
	out := make([]EventInfo, len(s.queue))
	for i, e := range s.queue {
		out[i] = EventInfo{At: e.at, Seq: e.seq, Canceled: s.nodes[e.slot].canceled}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At < out[j].At {
			return true
		}
		if out[j].At < out[i].At {
			return false
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
