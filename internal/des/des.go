// Package des implements a minimal deterministic discrete-event simulation
// core: a virtual clock and a time-ordered event queue.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO), which keeps simulations deterministic regardless of map
// iteration order elsewhere in the program.
//
// Determinism obligations: a run is a pure function of the sequence of
// Schedule calls — no wall-clock time, no randomness, no map iteration.
// Callers inherit the obligation to schedule events in a deterministic
// order.
package des

import (
	"container/heap"
	"fmt"
	"sort"
)

// Time is simulation time in seconds.
type Time float64

// Event is a scheduled callback.
type Event struct {
	at       Time
	seq      uint64 // tie-break: FIFO among events at the same instant
	fn       func()
	canceled bool
	index    int // heap index, -1 when not queued
}

// At reports the time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Simulator owns the virtual clock and the pending event set.
// The zero value is not usable; call New.
type Simulator struct {
	now    Time
	seq    uint64
	events eventHeap
	fired  uint64
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

// At schedules fn to run at absolute time at. Scheduling in the past (before
// Now) panics: it always indicates a modelling bug, and silently clamping
// would hide it.
func (s *Simulator) At(at Time, fn func()) *Event {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", at, s.now))
	}
	e := &Event{at: at, seq: s.seq, fn: fn, index: -1}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// After schedules fn to run d seconds from now.
func (s *Simulator) After(d Time, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false when no events remain.
func (s *Simulator) Step() bool {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*Event)
		if e.canceled {
			continue
		}
		s.now = e.at
		s.fired++
		e.fn()
		return true
	}
	return false
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
	out := make([]EventInfo, len(s.events))
	for i, e := range s.events {
		out[i] = EventInfo{At: e.at, Seq: e.seq, Canceled: e.canceled}
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
