package des

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptySimulator(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("new simulator clock = %v, want 0", s.Now())
	}
	if s.Step() {
		t.Fatal("Step on empty simulator returned true")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func() { order = append(order, at) })
	}
	s.Run()
	want := []Time{1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		//corralvet:ok floateq exact identity intended: events fire at exactly the times they were scheduled
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	s.At(10, func() {
		if s.Now() != 10 {
			t.Errorf("clock inside event = %v, want 10", s.Now())
		}
	})
	s.Run()
	if s.Now() != 10 {
		t.Fatalf("clock after run = %v, want 10", s.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(5, func() {
		s.After(3, func() { at = s.Now() })
	})
	s.Run()
	if at != 8 {
		t.Fatalf("After(3) from t=5 fired at %v, want 8", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	if !e.Armed() || !s.Scheduled(e) {
		t.Fatal("a fresh handle is not armed and scheduled")
	}
	s.Cancel(e)
	if s.Scheduled(e) {
		t.Fatal("Scheduled = true after Cancel")
	}
	// Canceling twice, or canceling the zero Handle, is a no-op.
	s.Cancel(e)
	s.Cancel(Handle{})
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if (Handle{}).Armed() {
		t.Fatal("the zero Handle is armed")
	}
}

// TestStaleHandleCancelIsNoop cancels handles of a fired and of a
// canceled event after their nodes were reused: the reusing events must
// still fire.
func TestStaleHandleCancelIsNoop(t *testing.T) {
	s := New()
	var order []int
	fired := s.At(1, func() { order = append(order, 1) })
	canceled := s.At(2, func() { order = append(order, 2) })
	s.Cancel(canceled)
	s.Run()
	a := s.After(1, func() { order = append(order, 3) })
	b := s.After(1, func() { order = append(order, 4) })
	if a.slot != canceled.slot || b.slot != fired.slot {
		t.Fatalf("slots %d, %d not reused from %d, %d", a.slot, b.slot, canceled.slot, fired.slot)
	}
	s.Cancel(fired)
	s.Cancel(canceled)
	if fired.At() != 1 || a.At() != 2 || !fired.Armed() || s.Scheduled(fired) || !s.Scheduled(a) {
		t.Fatalf("stale handle at %v armed %v scheduled %v; reused at %v scheduled %v",
			fired.At(), fired.Armed(), s.Scheduled(fired), a.At(), s.Scheduled(a))
	}
	s.Run()
	if !slices.Equal(order, []int{1, 3, 4}) {
		t.Fatalf("fired %v, want [1 3 4]", order)
	}
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	fired := false
	var later Handle
	s.At(1, func() { s.Cancel(later) })
	later = s.At(2, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event canceled by an earlier event still fired")
	}
}

func TestFiredCount(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", s.Fired())
	}
}

// Property: for any batch of event times, events fire in nondecreasing time
// order and all of them fire.
func TestQuickOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		count := int(n%64) + 1
		times := make([]Time, count)
		var fired []Time
		for i := range times {
			times[i] = Time(rng.Float64() * 1000)
			at := times[i]
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != count {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		sorted := append([]Time(nil), times...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			//corralvet:ok floateq exact identity intended: events fire at exactly the times they were scheduled
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving scheduling during execution preserves causality —
// an event can only schedule at or after its own time, and the clock never
// moves backwards.
func TestQuickCausality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		last := Time(-1)
		ok := true
		var spawn func()
		remaining := 100
		spawn = func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
			if remaining <= 0 {
				return
			}
			remaining--
			s.After(Time(rng.Float64()), spawn)
		}
		s.At(0, spawn)
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// refSim is the pointer-node simulator this package had before event
// nodes were pooled, kept verbatim apart from the names as the oracle of
// TestSimulatorMatchesRef: one heap-allocated refEvent per event, queued
// through container/heap and never reused.
type refSim struct {
	now    Time
	seq    uint64
	events refHeap
	fired  uint64
}

type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int // heap index, -1 when not queued
}

func (e *refEvent) Cancel() { e.canceled = true }

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (s *refSim) At(at Time, fn func()) *refEvent {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", at, s.now))
	}
	e := &refEvent{at: at, seq: s.seq, fn: fn, index: -1}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

func (s *refSim) After(d Time, fn func()) *refEvent { return s.At(s.now+d, fn) }

func (s *refSim) Step() bool {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*refEvent)
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

func (s *refSim) PendingEvents() []EventInfo {
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

// scriptStats counts what a script exercised, for the anti-vacuity floor:
// events scheduled on a reused node, and cancels through a stale handle
// (of an event already fired or popped canceled), split by whether the
// handle's node had been reused by then.
type scriptStats struct {
	reuses, staleCancels, staleReusedCancels int
}

// scriptRun drives one op script through a Simulator and a refSim side by
// side. Event i is handles[i] in the one and refs[i] in the other.
type scriptRun struct {
	t       testing.TB
	sim     *Simulator
	ref     *refSim
	handles []Handle
	uses    []int // slotUse of each handle's slot when it was scheduled
	refs    []*refEvent
	log     []int
	refLog  []int
	maxEv   int
	slotUse map[int32]int
	stats   scriptStats
}

// schedule schedules the next event delay from now in both simulators
// with the callback action act.
func (r *scriptRun) schedule(delay Time, act byte) {
	r.schedulePooled(delay, act)
	r.scheduleRef(delay, act)
}

// schedulePooled and scheduleRef schedule the next event in one of the
// simulators. The event's callback logs its id and acts: bit 0 of act
// schedules a child, bit 1 cancels event act>>2 modulo the number of
// events scheduled before this one (possibly itself, whose handle is
// stale by then).
func (r *scriptRun) schedulePooled(delay Time, act byte) {
	id, n := len(r.handles), len(r.handles)+1
	h := r.sim.After(delay, func() {
		r.log = append(r.log, id)
		if act&2 != 0 {
			r.cancel(int(act>>2) % n)
		}
		if act&1 != 0 && len(r.handles) < r.maxEv {
			r.schedulePooled(Time(act>>2%3)*0.5, byte(id*37+11))
		}
	})
	if r.slotUse[h.slot]++; r.slotUse[h.slot] > 1 {
		r.stats.reuses++
	}
	r.handles = append(r.handles, h)
	r.uses = append(r.uses, r.slotUse[h.slot])
}

func (r *scriptRun) scheduleRef(delay Time, act byte) {
	id, n := len(r.refs), len(r.refs)+1
	r.refs = append(r.refs, r.ref.After(delay, func() {
		r.refLog = append(r.refLog, id)
		if act&2 != 0 {
			r.refs[int(act>>2)%n].Cancel()
		}
		if act&1 != 0 && len(r.refs) < r.maxEv {
			r.scheduleRef(Time(act>>2%3)*0.5, byte(id*37+11))
		}
	}))
}

// cancel cancels event j in the pooled simulator, counting stale
// handles: those of an event that fired or was popped canceled.
func (r *scriptRun) cancel(j int) {
	if r.sim.nodes[r.handles[j].slot].gen != r.handles[j].gen {
		r.stats.staleCancels++
		if r.slotUse[r.handles[j].slot] > r.uses[j] {
			r.stats.staleReusedCancels++
		}
	}
	r.sim.Cancel(r.handles[j])
}

// step steps both simulators and fails on any difference in what fired or
// in the observable state.
func (r *scriptRun) step() bool {
	got := r.sim.Step()
	want := r.ref.Step()
	if got != want {
		r.t.Fatalf("Step = %v, reference %v", got, want)
	}
	r.check()
	return got
}

func (r *scriptRun) check() {
	if !slices.Equal(r.log, r.refLog) {
		r.t.Fatalf("fired %v, reference fired %v", r.log, r.refLog)
	}
	//corralvet:ok floateq exact identity intended: both clocks take their times from the same scheduled instants
	if r.sim.Now() != r.ref.now || r.sim.Fired() != r.ref.fired || r.sim.Seq() != r.ref.seq {
		r.t.Fatalf("now %v fired %d seq %d; reference %v, %d, %d",
			r.sim.Now(), r.sim.Fired(), r.sim.Seq(), r.ref.now, r.ref.fired, r.ref.seq)
	}
	if got, want := r.sim.PendingEvents(), r.ref.PendingEvents(); !slices.Equal(got, want) {
		r.t.Fatalf("pending %v, reference %v", got, want)
	}
	for j, h := range r.handles {
		//corralvet:ok floateq exact identity intended: a handle keeps the time it was scheduled for
		if live := r.refs[j].index >= 0 && !r.refs[j].canceled; r.sim.Scheduled(h) != live || h.At() != r.refs[j].at {
			r.t.Fatalf("event %d: scheduled %v at %v, reference live %v at %v", j, r.sim.Scheduled(h), h.At(), live, r.refs[j].at)
		}
	}
}

// runScript interprets ops as At/After/Cancel/Step operations on both
// simulators and drains them at the end, checking after every step.
func runScript(t testing.TB, ops []byte) scriptStats {
	r := &scriptRun{t: t, sim: New(), ref: &refSim{}, maxEv: 4*len(ops) + 8, slotUse: make(map[int32]int)}
	next := func(i *int) byte {
		if *i >= len(ops) {
			return 0
		}
		b := ops[*i]
		*i++
		return b
	}
	for i := 0; i < len(ops); {
		switch op := next(&i); op % 8 {
		case 0, 1, 2, 3:
			r.schedule(Time(next(&i)%4)*0.5, next(&i))
		case 4, 5:
			if len(r.handles) > 0 {
				j := int(next(&i)) % len(r.handles)
				r.cancel(j)
				r.refs[j].Cancel()
				r.check()
			}
		default:
			r.step()
		}
	}
	for r.step() {
	}
	return r.stats
}

// TestSimulatorMatchesRef runs random scripts of At/After/Cancel/Step
// through the pooled simulator and refSim, including cancels through
// stale handles of fired, canceled and reused nodes and callbacks that
// schedule and cancel, and requires the same firing sequence, Now, Fired,
// Seq and PendingEvents after every step. Node reuse and stale cancels on
// reused nodes must each occur more than 100 times over the seeds.
func TestSimulatorMatchesRef(t *testing.T) {
	var total scriptStats
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 20+rng.Intn(200))
		rng.Read(ops)
		st := runScript(t, ops)
		total.reuses += st.reuses
		total.staleCancels += st.staleCancels
		total.staleReusedCancels += st.staleReusedCancels
	}
	t.Logf("node reuses %d, stale cancels %d (%d on reused nodes)", total.reuses, total.staleCancels, total.staleReusedCancels)
	if total.reuses <= 100 || total.staleReusedCancels <= 100 {
		t.Fatalf("vacuous: %d node reuses, %d stale cancels on reused nodes; want more than 100 each",
			total.reuses, total.staleReusedCancels)
	}
}

// FuzzSimulatorMatchesRef is TestSimulatorMatchesRef's differential
// check on fuzzed op scripts.
func FuzzSimulatorMatchesRef(f *testing.F) {
	f.Add([]byte{0, 0, 0, 6, 4, 0, 0, 1, 3, 6, 6, 4, 1, 4, 0, 1, 0, 7})
	f.Add([]byte{1, 2, 7, 2, 0, 6, 3, 3, 255, 4, 2, 6, 6, 0, 0, 0, 5, 1})
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip()
		}
		runScript(t, ops)
	})
}

// TestSimulatorSteadyStateZeroAlloc requires a warmed At+Step and a
// warmed At+Cancel+Step to allocate nothing.
func TestSimulatorSteadyStateZeroAlloc(t *testing.T) {
	s := New()
	fn := func() {}
	s.At(0, fn)
	s.Step()
	if allocs := testing.AllocsPerRun(100, func() {
		s.After(1, fn)
		s.Step()
	}); allocs != 0 {
		t.Fatalf("At+Step allocates %v objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Cancel(s.After(1, fn))
		s.Step()
	}); allocs != 0 {
		t.Fatalf("At+Cancel+Step allocates %v objects, want 0", allocs)
	}
}
