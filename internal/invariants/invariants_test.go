package invariants

import (
	"strings"
	"testing"

	"corral/internal/trace"
)

func ev(t float64, k trace.Kind, machine, job int) trace.Event {
	return trace.Event{T: t, Kind: k, Mach: machine, Job: job}
}

// deferral is a job_deferred event; the queue depth rides in Value.
func deferral(t float64, depth, job int) trace.Event {
	return trace.Event{T: t, Kind: trace.KJobDeferred, Mach: -1, Job: job, Value: float64(depth)}
}

// TestCleanRunNoViolations: a well-formed lifecycle produces no
// violations — the monitor must not fire on healthy runs.
func TestCleanRunNoViolations(t *testing.T) {
	m := NewMonitor(4, 2)
	for _, e := range []trace.Event{
		ev(0, trace.KJobSubmit, -1, 1),
		ev(1, trace.KTaskStart, 0, 1),
		ev(1, trace.KTaskStart, 0, 1), // second slot on machine 0
		ev(2, trace.KTaskFinish, 0, 1),
		ev(2, trace.KMachineDown, 3, -1),
		ev(3, trace.KTaskFinish, 0, 1),
		ev(4, trace.KMachineUp, 3, -1),
		ev(4, trace.KTaskStart, 3, 1),
		ev(5, trace.KTaskFinish, 3, 1),
		ev(5, trace.KJobDone, -1, 1),
		ev(5, trace.KSimEnd, -1, -1),
	} {
		m.Observe(e)
	}
	if n := m.ViolationCount(); n != 0 {
		t.Fatalf("clean run produced %d violations: %v", n, m.Violations())
	}
	if !m.Ended() {
		t.Fatal("SimEnd not recorded")
	}
}

// TestSlotConservation: more concurrent attempts than slots must fire.
func TestSlotConservation(t *testing.T) {
	m := NewMonitor(2, 1)
	m.Observe(ev(0, trace.KJobSubmit, -1, 1))
	m.Observe(ev(1, trace.KTaskStart, 0, 1))
	m.Observe(ev(1, trace.KTaskStart, 0, 1))
	assertViolation(t, m, "exceed 1 slots")

	m2 := NewMonitor(2, 1)
	m2.Observe(ev(1, trace.KTaskFinish, 0, 1))
	assertViolation(t, m2, "went negative")
}

// TestDeadAndBlacklistedPlacement: attempts must never start on dead or
// blacklisted machines.
func TestDeadAndBlacklistedPlacement(t *testing.T) {
	m := NewMonitor(2, 2)
	m.Observe(ev(0, trace.KMachineDown, 1, -1))
	m.Observe(ev(1, trace.KTaskStart, 1, 7))
	assertViolation(t, m, "dead machine 1")

	m2 := NewMonitor(2, 2)
	m2.Observe(ev(0, trace.KBlacklist, 0, -1))
	m2.Observe(ev(1, trace.KTaskStart, 0, 7))
	assertViolation(t, m2, "blacklisted machine 0")

	// After unblacklist the machine is schedulable again.
	m3 := NewMonitor(2, 2)
	m3.Observe(ev(0, trace.KBlacklist, 0, -1))
	m3.Observe(ev(5, trace.KUnblacklist, 0, -1))
	m3.Observe(ev(6, trace.KTaskStart, 0, 7))
	if m3.ViolationCount() != 0 {
		t.Fatalf("unexpected violations: %v", m3.Violations())
	}
}

// TestTimeMonotonicity: a decreasing event time must fire.
func TestTimeMonotonicity(t *testing.T) {
	m := NewMonitor(1, 1)
	m.Observe(ev(5, trace.KJobSubmit, -1, 1))
	m.Observe(ev(4, trace.KJobSubmit, -1, 2))
	assertViolation(t, m, "went backwards")
}

// TestTerminality: double-terminal and never-terminal jobs must fire.
func TestTerminality(t *testing.T) {
	m := NewMonitor(1, 1)
	m.Observe(ev(0, trace.KJobSubmit, -1, 1))
	m.Observe(ev(1, trace.KJobDone, -1, 1))
	m.Observe(ev(2, trace.KJobFail, -1, 1))
	assertViolation(t, m, "second terminal event")

	m2 := NewMonitor(1, 1)
	m2.Observe(ev(0, trace.KJobSubmit, -1, 1))
	m2.Observe(ev(0, trace.KJobSubmit, -1, 2))
	m2.Observe(ev(1, trace.KJobDone, -1, 1))
	m2.Observe(ev(2, trace.KSimEnd, -1, -1))
	assertViolation(t, m2, "never reached a terminal state")

	// A failed job is terminal: no violation.
	m3 := NewMonitor(1, 1)
	m3.Observe(ev(0, trace.KJobSubmit, -1, 3))
	m3.Observe(ev(1, trace.KJobFail, -1, 3))
	m3.Observe(ev(2, trace.KSimEnd, -1, -1))
	if m3.ViolationCount() != 0 {
		t.Fatalf("failed-but-terminal job flagged: %v", m3.Violations())
	}
}

// TestLeakedAttemptAtEnd: an attempt still running at SimEnd must fire.
func TestLeakedAttemptAtEnd(t *testing.T) {
	m := NewMonitor(2, 2)
	m.Observe(ev(0, trace.KJobSubmit, -1, 1))
	m.Observe(ev(1, trace.KTaskStart, 0, 1))
	m.Observe(ev(2, trace.KJobDone, -1, 1))
	m.Observe(ev(3, trace.KSimEnd, -1, -1))
	assertViolation(t, m, "still running at simulation end")
}

// TestAuditEvents: external audit failures become violations verbatim.
func TestAuditEvents(t *testing.T) {
	m := NewMonitor(1, 1)
	m.Observe(trace.Event{T: 3, Kind: trace.KAudit, Mach: -1, Job: -1, Detail: "link 4 oversubscribed"})
	assertViolation(t, m, "link 4 oversubscribed")
}

// TestViolationCap: the stored list is capped but the count keeps going.
func TestViolationCap(t *testing.T) {
	m := NewMonitor(1, 1)
	for i := 0; i < maxViolations+50; i++ {
		m.Violationf("v%d", i)
	}
	if got := len(m.Violations()); got != maxViolations {
		t.Fatalf("stored %d violations, want cap %d", got, maxViolations)
	}
	if m.ViolationCount() != maxViolations+50 {
		t.Fatalf("count %d, want %d", m.ViolationCount(), maxViolations+50)
	}
}

func assertViolation(t *testing.T, m *Monitor, substr string) {
	t.Helper()
	if m.ViolationCount() == 0 {
		t.Fatalf("expected a violation containing %q, got none", substr)
	}
	for _, v := range m.Violations() {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Fatalf("no violation contains %q; got %v", substr, m.Violations())
}

// TestReplanRateBound: the armed replan-rate invariant fires when more
// than max replans land inside the trailing window, and stays quiet for
// a paced stream or when disarmed.
func TestReplanRateBound(t *testing.T) {
	m := NewMonitor(4, 2)
	m.BoundReplanRate(2, 10)
	for _, tm := range []float64{0, 3, 20, 35} { // never >2 in any 10 s
		m.Observe(ev(tm, trace.KReplan, -1, -1))
	}
	if n := m.ViolationCount(); n != 0 {
		t.Fatalf("paced replans produced %d violations: %v", n, m.Violations())
	}

	m = NewMonitor(4, 2)
	m.BoundReplanRate(2, 10)
	for _, tm := range []float64{40, 41, 42} { // 3 within 10 s
		m.Observe(ev(tm, trace.KReplan, -1, -1))
	}
	if n := m.ViolationCount(); n != 1 {
		t.Fatalf("burst produced %d violations, want 1: %v", n, m.Violations())
	}
	if !strings.Contains(m.Violations()[0], "replans within") {
		t.Fatalf("unexpected message %q", m.Violations()[0])
	}

	// Disarmed: any burst is fine.
	m = NewMonitor(4, 2)
	for i := 0; i < 50; i++ {
		m.Observe(ev(1, trace.KReplan, -1, -1))
	}
	if n := m.ViolationCount(); n != 0 {
		t.Fatalf("disarmed monitor produced %d violations", n)
	}
}

// TestAdmissionQueueBound: deferral depths above the armed cap fire.
func TestAdmissionQueueBound(t *testing.T) {
	m := NewMonitor(4, 2)
	m.BoundAdmissionQueue(3)
	m.Observe(deferral(1, 3, 7)) // at cap: fine
	if n := m.ViolationCount(); n != 0 {
		t.Fatalf("in-bound defer produced %d violations: %v", n, m.Violations())
	}
	m.Observe(deferral(2, 4, 8))
	if n := m.ViolationCount(); n != 1 {
		t.Fatalf("over-cap defer produced %d violations, want 1: %v", n, m.Violations())
	}
	if !strings.Contains(m.Violations()[0], "admission queue depth") {
		t.Fatalf("unexpected message %q", m.Violations()[0])
	}
}

// TestShedTerminality: a shed job is terminal without submission (no
// violation), but double-terminal still fires — including shed-then-done.
func TestShedTerminality(t *testing.T) {
	m := NewMonitor(4, 2)
	m.Observe(ev(1, trace.KJobShed, -1, 9))
	m.Observe(ev(5, trace.KSimEnd, -1, -1))
	if n := m.ViolationCount(); n != 0 {
		t.Fatalf("shed job produced %d violations: %v", n, m.Violations())
	}

	m = NewMonitor(4, 2)
	m.Observe(ev(1, trace.KJobShed, -1, 9))
	m.Observe(ev(2, trace.KJobShed, -1, 9))
	if n := m.ViolationCount(); n != 1 {
		t.Fatalf("double shed produced %d violations, want 1: %v", n, m.Violations())
	}

	m = NewMonitor(4, 2)
	m.Observe(ev(0, trace.KJobSubmit, -1, 9))
	m.Observe(ev(1, trace.KJobShed, -1, 9))
	m.Observe(ev(2, trace.KJobDone, -1, 9))
	if n := m.ViolationCount(); n != 1 {
		t.Fatalf("shed-then-done produced %d violations, want 1: %v", n, m.Violations())
	}
}

// TestSimEndAtQuiesceTime: sim_end carries the quiesce time, which may
// precede the last event; it closes the run without a time violation.
func TestSimEndAtQuiesceTime(t *testing.T) {
	m := NewMonitor(2, 2)
	m.Observe(ev(0, trace.KJobSubmit, -1, 1))
	m.Observe(ev(5, trace.KJobDone, -1, 1))
	m.Observe(ev(9, trace.KMachineUp, 0, -1))
	m.Observe(ev(5, trace.KSimEnd, -1, -1))
	if !m.Ended() || m.ViolationCount() != 0 {
		t.Fatalf("ended=%v, violations %v", m.Ended(), m.Violations())
	}
}

// TestIgnoresUncheckedKinds: flow, DFS traffic, planner and metadata
// events pass through without any check, time included.
func TestIgnoresUncheckedKinds(t *testing.T) {
	m := NewMonitor(1, 1)
	m.Observe(ev(5, trace.KJobSubmit, -1, 1))
	for _, k := range []trace.Kind{trace.KMachineMeta, trace.KFlowRate, trace.KBlockRead, trace.KPlanAssign, trace.KSlotsBusy} {
		m.Observe(ev(1, k, 99, 1))
	}
	if n := m.ViolationCount(); n != 0 {
		t.Fatalf("unchecked kinds produced %d violations: %v", n, m.Violations())
	}
}
