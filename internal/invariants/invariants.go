// Package invariants is the runtime invariant monitor behind the
// corralcheck fuzzer: the simulation runtime streams its trace events
// (task attempts, machine state changes, AM restarts, job terminations)
// into a Monitor, which checks the safety properties every run must obey
// regardless of the fault trace thrown at it:
//
//   - slot conservation: a machine never runs more concurrent attempts
//     than it has slots, and attempt counts never go negative;
//   - placement safety: no attempt ever starts on a dead or blacklisted
//     machine;
//   - event-time monotonicity: observed event times never decrease;
//   - terminality: every submitted job either completes or fails,
//     exactly once, and nothing is still running at simulation end;
//   - externally audited properties (per-link flow-rate feasibility from
//     netsim, byte conservation from the DFS) reported as audit events.
//
// A Monitor is a trace.Observer: runtime.Options.Probe attaches it to the
// run's tracer, so it reads the same event stream the trace exports do
// and ignores the kinds it does not check (flows, DFS traffic, planner
// events). Richer checks that need netsim or dfs internals run in those
// packages and report their verdict as trace.KAudit events.
//
// Determinism obligations: a Monitor's violation list is a pure function
// of the observed event sequence — no maps are ranged unsorted, no
// randomness, no wall clock.
package invariants

import (
	"fmt"
	"sort"

	"corral/internal/trace"
)

// maxViolations caps stored violation messages so a badly broken run
// cannot allocate without bound; the count keeps incrementing.
const maxViolations = 100

// Monitor checks the invariants over an event stream. Zero value is not
// usable; call NewMonitor.
type Monitor struct {
	machines int
	slots    int

	lastTime    float64
	sawEvent    bool
	runningOn   []int
	down        []bool
	blacklisted []bool

	submitted map[int]bool
	terminal  map[int]trace.Kind

	// Overload bounds; zero values keep the checks disarmed so existing
	// gates observe the new event kinds without new obligations.
	replanMax    int
	replanWindow float64
	replanTimes  []float64
	admissionCap int

	violations []string
	count      int
	ended      bool
}

// NewMonitor creates a monitor for a cluster of the given shape.
func NewMonitor(machines, slotsPerMachine int) *Monitor {
	return &Monitor{
		machines:    machines,
		slots:       slotsPerMachine,
		runningOn:   make([]int, machines),
		down:        make([]bool, machines),
		blacklisted: make([]bool, machines),
		submitted:   make(map[int]bool),
		terminal:    make(map[int]trace.Kind),
	}
}

// BoundReplanRate arms the replan-rate invariant: more than max replan
// events within any trailing window of the given length (seconds of
// simulated time) is a violation. Verifies that replan-storm suppression
// actually bounds planner invocations under fault bursts.
func (m *Monitor) BoundReplanRate(max int, window float64) {
	m.replanMax = max
	m.replanWindow = window
}

// BoundAdmissionQueue arms the admission-queue invariant: a deferral
// event reporting a queue depth above cap is a violation. Verifies that
// admission control keeps the pending-arrival backlog bounded.
func (m *Monitor) BoundAdmissionQueue(cap int) {
	m.admissionCap = cap
}

// Violationf records one invariant violation.
func (m *Monitor) Violationf(format string, args ...any) {
	m.count++
	if len(m.violations) < maxViolations {
		m.violations = append(m.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns the recorded violation messages (capped; see
// ViolationCount for the true total).
func (m *Monitor) Violations() []string {
	return append([]string(nil), m.violations...)
}

// ViolationCount returns the total number of violations observed.
func (m *Monitor) ViolationCount() int { return m.count }

// Ended reports whether a sim_end event was observed.
func (m *Monitor) Ended() bool { return m.ended }

// machineOK validates a machine index for events that carry one.
func (m *Monitor) machineOK(e trace.Event) bool {
	if e.Mach < 0 || e.Mach >= m.machines {
		m.Violationf("t=%.3f %v: machine %d out of range [0,%d)", e.T, e.Kind, e.Mach, m.machines)
		return false
	}
	return true
}

// Observe checks one event against the invariants. Kinds the monitor
// does not check pass through untouched, time included.
func (m *Monitor) Observe(e trace.Event) {
	switch e.Kind {
	case trace.KJobSubmit, trace.KTaskStart, trace.KTaskFinish, trace.KTaskAbort,
		trace.KTaskCrash, trace.KDFSCorrupt, trace.KAMFail, trace.KAMRestart,
		trace.KMachineDown, trace.KMachineUp, trace.KBlacklist, trace.KUnblacklist,
		trace.KJobDone, trace.KJobFail, trace.KReplan, trace.KJobDeferred,
		trace.KJobShed, trace.KAudit:
	case trace.KSimEnd:
		// Stamped with the quiesce time, which may precede the last
		// event: it closes the run rather than advancing the clock.
		m.ended = true
		m.finish(e.T)
		return
	default:
		return
	}
	if m.sawEvent && e.T < m.lastTime {
		m.Violationf("t=%.3f %v: event time went backwards (last %.3f)", e.T, e.Kind, m.lastTime)
	}
	if e.T >= m.lastTime {
		m.lastTime = e.T
	}
	m.sawEvent = true

	switch e.Kind {
	case trace.KJobSubmit:
		m.submitted[e.Job] = true
	case trace.KTaskStart:
		if !m.machineOK(e) {
			return
		}
		if m.down[e.Mach] {
			m.Violationf("t=%.3f job %d: attempt started on dead machine %d", e.T, e.Job, e.Mach)
		}
		if m.blacklisted[e.Mach] {
			m.Violationf("t=%.3f job %d: attempt started on blacklisted machine %d", e.T, e.Job, e.Mach)
		}
		m.runningOn[e.Mach]++
		if m.runningOn[e.Mach] > m.slots {
			m.Violationf("t=%.3f machine %d: %d concurrent attempts exceed %d slots",
				e.T, e.Mach, m.runningOn[e.Mach], m.slots)
		}
	case trace.KTaskFinish, trace.KTaskAbort:
		if !m.machineOK(e) {
			return
		}
		m.runningOn[e.Mach]--
		if m.runningOn[e.Mach] < 0 {
			m.Violationf("t=%.3f machine %d: attempt count went negative on %v", e.T, e.Mach, e.Kind)
		}
	case trace.KTaskCrash, trace.KDFSCorrupt, trace.KAMFail, trace.KAMRestart:
		// Informational; range-check only.
		if e.Mach >= 0 {
			m.machineOK(e)
		}
	case trace.KMachineDown:
		if m.machineOK(e) {
			m.down[e.Mach] = true
		}
	case trace.KMachineUp:
		if m.machineOK(e) {
			m.down[e.Mach] = false
		}
	case trace.KBlacklist:
		if m.machineOK(e) {
			m.blacklisted[e.Mach] = true
		}
	case trace.KUnblacklist:
		if m.machineOK(e) {
			m.blacklisted[e.Mach] = false
		}
	case trace.KJobDone, trace.KJobFail:
		if prev, ok := m.terminal[e.Job]; ok {
			m.Violationf("t=%.3f job %d: second terminal event %v (already %v)", e.T, e.Job, e.Kind, prev)
		}
		m.terminal[e.Job] = e.Kind
		if !m.submitted[e.Job] {
			m.Violationf("t=%.3f job %d: terminal event %v without submission", e.T, e.Job, e.Kind)
		}
	case trace.KReplan:
		if m.replanWindow > 0 {
			m.replanTimes = append(m.replanTimes, e.T)
			// Drop times outside the trailing window (t-window, t].
			cut := 0
			for cut < len(m.replanTimes) && m.replanTimes[cut] <= e.T-m.replanWindow {
				cut++
			}
			m.replanTimes = m.replanTimes[cut:]
			if len(m.replanTimes) > m.replanMax {
				m.Violationf("t=%.3f: %d replans within the last %.3f s exceed the bound of %d",
					e.T, len(m.replanTimes), m.replanWindow, m.replanMax)
			}
		}
	case trace.KJobDeferred:
		if depth := int(e.Value); m.admissionCap > 0 && depth > m.admissionCap {
			m.Violationf("t=%.3f job %d: admission queue depth %d exceeds the cap of %d",
				e.T, e.Job, depth, m.admissionCap)
		}
	case trace.KJobShed:
		// Terminal without the submission requirement: shed jobs never
		// entered the scheduler.
		if prev, ok := m.terminal[e.Job]; ok {
			m.Violationf("t=%.3f job %d: second terminal event %v (already %v)", e.T, e.Job, e.Kind, prev)
		}
		m.terminal[e.Job] = e.Kind
	case trace.KAudit:
		m.Violationf("t=%.3f audit failed: %s", e.T, e.Detail)
	}
}

// finish runs the end-of-simulation checks: nothing still running, every
// submitted job terminal.
func (m *Monitor) finish(at float64) {
	for mach, n := range m.runningOn {
		if n != 0 {
			m.Violationf("t=%.3f machine %d: %d attempts still running at simulation end", at, mach, n)
		}
	}
	// Collect-and-sort: violation order must not depend on map iteration.
	var jobs []int
	for j := range m.submitted {
		jobs = append(jobs, j)
	}
	sort.Ints(jobs)
	for _, j := range jobs {
		if _, ok := m.terminal[j]; !ok {
			m.Violationf("t=%.3f job %d: submitted but never reached a terminal state", at, j)
		}
	}
}
