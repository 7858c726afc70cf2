package runtime

// Overload hardening: streaming-arrival admission control and
// replan-storm suppression. Both features are off by default (zero
// Options values) and, when off, leave the runtime's event stream — and
// therefore every pre-existing trace, snapshot and Result — bit-identical
// to the legacy behavior.
//
// Admission control (Options.AdmissionLimit): arrivals pass through
// arrive() instead of submitting directly. At most AdmissionLimit jobs
// are admitted (submitted and not yet terminal) at once; excess arrivals
// park in a FIFO admission queue bounded by AdmissionQueueCap, and
// arrivals beyond the cap are shed — a deterministic terminal outcome,
// counted separately from attrition failures. Terminal jobs release
// their admission slot and drain the queue in arrival order.
//
// Replan-storm suppression (Options.ReplanWindow): fault-triggered
// replan requests route through requestReplan(). Each debounce window
// allows maxReplansPerWindow immediate replans; further requests in the
// window are coalesced into one pending replan at the window's end, and
// every saturated window doubles the next window's length (exponential
// cooldown, capped at 8×). A burst of N rack faults then costs O(log N)
// planner invocations instead of N. The coalesced replan naturally
// skips an empty input delta: replanOnFailure returns before invoking
// the planner when no job still needs new constraints.

import (
	"fmt"

	"corral/internal/des"
)

// maxReplanCooldown caps the exponential window-stretch factor.
const maxReplanCooldown = 8

// validateOverload checks the overload-hardening knobs at startup.
func validateOverload(opts Options) error {
	if !(opts.PlannerBudget >= 0) { // NaN too
		return fmt.Errorf("runtime: PlannerBudget %g, want >= 0", opts.PlannerBudget)
	}
	if !(opts.ReplanWindow >= 0) {
		return fmt.Errorf("runtime: ReplanWindow %g, want >= 0", opts.ReplanWindow)
	}
	if opts.AdmissionLimit < 0 {
		return fmt.Errorf("runtime: negative AdmissionLimit %d", opts.AdmissionLimit)
	}
	if opts.AdmissionQueueCap < 0 {
		return fmt.Errorf("runtime: negative AdmissionQueueCap %d", opts.AdmissionQueueCap)
	}
	if opts.AdmissionQueueCap > 0 && opts.AdmissionLimit <= 0 {
		return fmt.Errorf("runtime: AdmissionQueueCap requires AdmissionLimit > 0")
	}
	return nil
}

// arrive is the admission gate in front of submit. With admission control
// disabled it degenerates to an immediate submission — the legacy path.
func (rt *runtime) arrive(je *jobExec) {
	limit := rt.opts.AdmissionLimit
	if limit <= 0 {
		rt.submit(je)
		return
	}
	// The queue-empty check keeps admission strictly FIFO: a fresh arrival
	// never jumps jobs already waiting.
	if rt.admitted < limit && len(rt.admissionQueue) == 0 {
		rt.admitted++
		rt.submit(je)
		return
	}
	now := float64(rt.sim.Now())
	if len(rt.admissionQueue) < rt.opts.AdmissionQueueCap {
		rt.admissionQueue = append(rt.admissionQueue, je)
		rt.deferred++
		depth := len(rt.admissionQueue)
		if depth > rt.maxAdmissionQ {
			rt.maxAdmissionQ = depth
		}
		rt.tr.JobDeferred(now, je.job.ID, depth)
		return
	}
	rt.shedJob(je)
}

// shedJob rejects an arrival at admission-queue capacity: terminal,
// deterministic load shedding. Shed jobs were never submitted, never
// consume an admission slot, and are counted in Result.Shed rather than
// Result.FailedJobs.
func (rt *runtime) shedJob(je *jobExec) {
	now := float64(rt.sim.Now())
	je.failed = true
	je.failReason = "shed: admission queue at capacity"
	je.completion = now
	rt.active--
	rt.shed++
	depth := len(rt.admissionQueue)
	rt.tr.JobShed(now, je.job.ID, depth)
}

// onJobTerminal releases a terminal job's admission slot and drains the
// admission queue in arrival order. Called from finishStage and failJob;
// only admitted (= submitted) jobs hold a slot.
func (rt *runtime) onJobTerminal(je *jobExec) {
	if rt.opts.AdmissionLimit <= 0 || !je.submitted {
		return
	}
	rt.admitted--
	for rt.admitted < rt.opts.AdmissionLimit && len(rt.admissionQueue) > 0 {
		next := rt.admissionQueue[0]
		rt.admissionQueue = rt.admissionQueue[1:]
		rt.admitted++
		rt.submit(next)
	}
}

// effectiveCooldown maps the stored cooldown to its multiplication
// factor. Zero — the value legacy runs and pre-PR-8 snapshots carry —
// means the baseline factor of 1.
func (rt *runtime) effectiveCooldown() int {
	if rt.replanCooldown < 1 {
		return 1
	}
	return rt.replanCooldown
}

// requestReplan routes a fault-triggered replan request through the
// storm suppressor. With suppression disabled it replans immediately —
// the legacy path.
func (rt *runtime) requestReplan() {
	w := rt.opts.ReplanWindow
	if w <= 0 {
		rt.replanOnFailure()
		return
	}
	now := float64(rt.sim.Now())
	if now >= rt.replanWindowEnd {
		// Opening a fresh window. A full cooldown span of quiet since the
		// last window decays the escalation back to baseline.
		if rt.replanCooldown > 1 && now >= rt.replanWindowEnd+float64(w*float64(rt.replanCooldown)) {
			rt.replanCooldown = 0
		}
		rt.replanWindowEnd = now + float64(w*float64(rt.effectiveCooldown()))
		rt.replansInWindow = 0
	}
	if rt.replansInWindow < maxReplansPerWindow {
		rt.replansInWindow++
		rt.replanOnFailure()
		return
	}
	// Window saturated: coalesce into one pending replan at window end and
	// escalate the cooldown for the windows that follow.
	rt.replansSuppressed++
	rt.tr.ReplanSuppressed(now, rt.replanWindowEnd)
	if !rt.replanPending {
		rt.replanPending = true
		c := rt.effectiveCooldown() * 2
		if c > maxReplanCooldown {
			c = maxReplanCooldown
		}
		rt.replanCooldown = c
		rt.sim.At(des.Time(rt.replanWindowEnd), rt.firePendingReplan)
	}
}

// firePendingReplan runs the coalesced replan a saturated window parked
// at its end. It opens the next (cooldown-stretched) window and counts
// itself against it. An empty input delta — every affected job finished
// or regained constraints meanwhile — makes replanOnFailure a no-op.
func (rt *runtime) firePendingReplan() {
	if !rt.replanPending {
		return
	}
	rt.replanPending = false
	now := float64(rt.sim.Now())
	rt.replanWindowEnd = now + float64(rt.opts.ReplanWindow*float64(rt.effectiveCooldown()))
	rt.replansInWindow = 1
	rt.replanOnFailure()
}
