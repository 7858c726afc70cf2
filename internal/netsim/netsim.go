// Package netsim is a flow-level network simulator over the two-level
// topology. It reproduces the modelling approach of the paper's §6.6
// simulator: flows share links according to a pluggable bandwidth-allocation
// policy — max-min fairness to emulate TCP, or a Varys-style coflow
// scheduler (SEBF + MADD with work-conserving backfill).
//
// The simulator is event-driven: whenever the active flow set changes, all
// flow rates are recomputed and a single completion event is scheduled for
// the earliest-finishing flow. Flows between machines in the same rack use
// only the two NICs (full bisection in-rack); cross-rack flows additionally
// traverse the oversubscribed rack uplink and downlink.
//
// Determinism obligations: flow rates and completion times are a pure
// function of the Start/stop call sequence — allocation policies iterate
// flows and links in id order, and same-instant events rely on the
// internal/des FIFO tie-break, so callers must start flows in a
// deterministic order.
package netsim

import (
	"fmt"
	"math"

	"corral/internal/des"
	"corral/internal/topology"
	"corral/internal/trace"
)

// CoflowID groups flows whose collective completion matters (e.g., one
// job's shuffle). Zero means "no coflow" — such flows are scheduled as
// plain TCP-like flows even under the coflow policy.
type CoflowID int64

// Flow is one in-flight transfer.
type Flow struct {
	ID        int64
	Src, Dst  int // machine indices
	Bytes     float64
	Coflow    CoflowID
	JobID     int // for cross-rack accounting; -1 for background/unattributed
	CrossRack bool

	path      []topology.LinkID
	pathID    int32 // dense id interned by Network.StartPath; 0 = not interned
	remaining float64
	rate      float64
	lastRate  float64 // last rate reported to the tracer
	done      func(*Flow)
	canceled  bool
}

// PathID returns the flow's interned path identity: flows with equal link
// paths share a PathID. Valid ids start at 1; 0 means the flow was built
// outside Network.StartPath (tests constructing Flows directly) and cannot
// be grouped.
func (f *Flow) PathID() int32 { return f.pathID }

// Canceled reports whether the flow was aborted via Network.Cancel.
func (f *Flow) Canceled() bool { return f.canceled }

// Remaining returns the bytes this flow still has to transfer (as of the
// last rate recomputation).
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the flow's current allocated rate in bytes/sec.
func (f *Flow) Rate() float64 { return f.rate }

// Policy allocates rates to the active flows. Implementations must fill
// f.rate for every flow, never exceed any link capacity in aggregate, and
// never assign a negative rate.
//
// Flow order contract: a Network passes its flows in strictly increasing
// ID order on every call (it appends new flows with the next ID and drops
// finished ones in place), and a flow ID keeps one path for the flow's
// life, even when the Flow object is pooled and reused under a new ID. A
// policy may therefore keep state between calls keyed on IDs:
// IncrementalMaxMin merges each call's list with the previous one to find
// the flows that started or ended, and panics when the order is broken.
type Policy interface {
	// Allocate assigns rates to flows. caps[linkID] is each link's
	// capacity; scratch is a reusable buffer of the same length holding
	// remaining capacity (contents are overwritten).
	Allocate(flows []*Flow, caps []float64, scratch []float64)
	Name() string
}

// Network multiplexes flows over a cluster's links.
type Network struct {
	sim     *des.Simulator
	cluster *topology.Cluster
	policy  Policy

	flows    []*Flow
	nextID   int64
	caps     []float64 // current capacity: baseCaps scaled by link faults
	baseCaps []float64 // capacities as registered by the topology
	scratch  []float64

	// Path interning: flows with byte-identical link paths share a dense
	// pathID (starting at 1), the equivalence-class key IncrementalMaxMin
	// groups on. pathKey is a reused encoding buffer — map lookups via
	// pathIDs[string(pathKey)] do not allocate; only the first sighting of
	// a distinct path does. pathsByID[id] is the canonical (never mutated)
	// link slice for each interned path: every flow's path field aliases
	// it, so callers may pass reusable path buffers to StartPath and
	// caches like IncrementalMaxMin can hold path references across rounds.
	pathIDs   map[string]int32
	pathKey   []byte
	pathsByID [][]topology.LinkID
	numPaths  int32
	startBuf  []topology.LinkID // reused by Start for AppendPath

	completedScratch []*Flow // reused each recompute for finished flows

	// Flow pooling (SetFlowPooling): canceled and completed path flows are
	// recycled through flowPool once fully retired — after accounting,
	// tracing and done callbacks. Loopback flows are never pooled: their
	// completion closure reads the object after an arbitrary delay.
	flowPool  []*Flow
	poolFlows bool

	lastAdvance  des.Time
	completionEv *des.Event
	recomputeEv  *des.Event

	// OnAllocate, if set, runs after every rate recomputation — the hook
	// the invariant monitor uses to audit each allocation the moment it is
	// made (AuditFeasibility). It observes state only; it must not start,
	// cancel or re-rate flows, and it must be deterministic.
	OnAllocate func()

	// Trace, if enabled, receives flow lifecycle events and per-link
	// utilization samples at recompute points. A nil tracer (the default)
	// keeps every emission on the disabled fast path.
	Trace *trace.Tracer

	// Tracer state, lazily allocated on first traced recompute: last
	// reported per-link utilization (emit-on-change).
	prevUtil []float64

	// linkLoad is the per-link load accumulator of AuditFeasibility and
	// traceAllocation, allocated by whichever runs first and cleared by
	// each; they run one after the other, never interleaved. It cannot be
	// the policy's scratch, which is unsafe to reuse mid-audit.
	linkLoad []float64

	// Accounting.
	totalCross  float64
	crossByJob  map[int]float64
	totalBytes  float64
	flowsServed int64
	linkBytes   []float64 // bytes carried per link, for utilization stats
}

// New creates a network over the cluster driven by the simulator's clock.
func New(sim *des.Simulator, cluster *topology.Cluster, policy Policy) *Network {
	links := cluster.Links()
	caps := make([]float64, len(links))
	for i, l := range links {
		caps[i] = l.Capacity
	}
	base := make([]float64, len(caps))
	copy(base, caps)
	return &Network{
		sim:       sim,
		cluster:   cluster,
		policy:    policy,
		caps:      caps,
		baseCaps:  base,
		scratch:   make([]float64, len(links)),
		pathIDs:   make(map[string]int32),
		pathsByID: [][]topology.LinkID{nil}, // index 0: the un-interned id

		crossByJob: make(map[int]float64),
		linkBytes:  make([]float64, len(links)),
	}
}

// ActiveFlows returns the number of currently active flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// CrossRackBytes returns total bytes carried over rack-to-core links.
func (n *Network) CrossRackBytes() float64 { return n.totalCross }

// CrossRackBytesByJob returns cross-rack bytes attributed to jobID.
func (n *Network) CrossRackBytesByJob(jobID int) float64 { return n.crossByJob[jobID] }

// TotalBytes returns all bytes transferred over the network (excluding
// loopback copies).
func (n *Network) TotalBytes() float64 { return n.totalBytes }

// FlowsServed returns the number of completed flows.
func (n *Network) FlowsServed() int64 { return n.flowsServed }

// SetFlowPooling enables (or disables) recycling of retired Flow objects.
// With pooling on, a *Flow handle is only valid until the flow completes
// or its cancellation is processed: callers must drop every reference in
// the done callback (or after Cancel) and never touch a flow afterward.
// The runtime follows that discipline; direct test/tool users of Network
// should leave pooling off unless they do too. Loopback (src==dst) flows
// are never pooled.
func (n *Network) SetFlowPooling(on bool) { n.poolFlows = on }

// Start begins a transfer of bytes from machine src to machine dst.
// done, if non-nil, is invoked when the transfer finishes. Zero-byte flows
// complete via an immediate event (never synchronously), so callers can
// safely start them from inside other completion callbacks.
func (n *Network) Start(src, dst int, bytes float64, coflow CoflowID, jobID int, done func(*Flow)) *Flow {
	if src == dst {
		return n.startPath(nil, false, bytes, coflow, jobID, src, dst, done)
	}
	// startBuf is reusable: startPath rebinds the flow to the interned
	// canonical path before returning.
	path, cross := n.cluster.AppendPath(n.startBuf, src, dst)
	n.startBuf = path[:0]
	return n.startPath(path, cross, bytes, coflow, jobID, src, dst, done)
}

// StartPath begins a transfer over an explicit link path. The execution
// engine uses this for rack-aggregated shuffle transfers whose "source" is
// a set of machines rather than one NIC. An empty path is a loopback copy
// at loopbackRate, outside network sharing.
func (n *Network) StartPath(path []topology.LinkID, crossRack bool, bytes float64, coflow CoflowID, jobID int, done func(*Flow)) *Flow {
	return n.startPath(path, crossRack, bytes, coflow, jobID, -1, -1, done)
}

// startPath is the shared implementation: src/dst are the real endpoints
// when known (Start), -1 for rack-aggregated path flows (StartPath), so
// the trace records whatever endpoint identity exists.
func (n *Network) startPath(path []topology.LinkID, crossRack bool, bytes float64, coflow CoflowID, jobID int, src, dst int, done func(*Flow)) *Flow {
	if bytes < 0 {
		panic(fmt.Sprintf("netsim: negative flow size %g", bytes))
	}
	n.nextID++
	var f *Flow
	if n.poolFlows && len(path) > 0 && len(n.flowPool) > 0 {
		f = n.flowPool[len(n.flowPool)-1]
		n.flowPool[len(n.flowPool)-1] = nil
		n.flowPool = n.flowPool[:len(n.flowPool)-1]
	} else {
		f = new(Flow)
	}
	*f = Flow{
		ID:        n.nextID,
		Src:       src,
		Dst:       dst,
		Bytes:     bytes,
		Coflow:    coflow,
		JobID:     jobID,
		CrossRack: crossRack,
		path:      path,
		done:      done,

		remaining: bytes,
	}
	if len(path) == 0 {
		// Local copy: fixed loopback rate, not subject to network sharing.
		d := des.Time(bytes / loopbackRate)
		n.sim.After(d, func() {
			if f.canceled {
				return
			}
			n.flowsServed++
			if f.done != nil {
				f.done(f)
			}
		})
		return f
	}
	f.pathID = n.internPath(path)
	f.path = n.pathsByID[f.pathID] // canonical slice; caller may reuse its buffer
	n.Trace.FlowStart(float64(n.sim.Now()), f.ID, jobID, src, dst, bytes, crossRack)
	n.flows = append(n.flows, f)
	n.scheduleRecompute()
	return f
}

// internPath returns the dense id shared by every flow with this exact link
// path, assigning the next id on first sight. Ids start at 1 so the zero
// value marks un-interned flows.
func (n *Network) internPath(path []topology.LinkID) int32 {
	n.pathKey = n.pathKey[:0]
	for _, l := range path {
		n.pathKey = append(n.pathKey, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	if id, ok := n.pathIDs[string(n.pathKey)]; ok {
		return id
	}
	n.numPaths++
	n.pathIDs[string(n.pathKey)] = n.numPaths
	canon := make([]topology.LinkID, len(path))
	copy(canon, path)
	n.pathsByID = append(n.pathsByID, canon)
	return n.numPaths
}

// NumPaths returns how many distinct link paths the network has seen — the
// upper bound on IncrementalMaxMin's equivalence-class count and on the
// highest index of its per-pathID group table, which it keeps between
// calls.
func (n *Network) NumPaths() int { return int(n.numPaths) }

// Cancel aborts an in-flight flow: its bandwidth is released at the next
// recomputation and its completion callback never fires. Bytes already
// transferred still count toward cross-rack accounting (they were really
// sent). Canceling a finished or already-canceled flow is a no-op.
// Loopback flows (empty path) cannot be canceled — their completion event
// is already queued — but their callback is suppressed.
func (n *Network) Cancel(f *Flow) {
	if f == nil || f.canceled {
		return
	}
	f.canceled = true
	if len(f.path) > 0 {
		n.scheduleRecompute()
	}
}

// SetLinkCapacityFactor scales link id's capacity to factor times the
// capacity registered by the topology (link faults, §7 "Dealing with
// failures"). Factor 1 restores the link; factor 0 fails it outright —
// flows crossing a failed link park at rate zero and resume when a later
// call raises the factor. In-flight flows re-share at the next
// recomputation, which this call schedules.
func (n *Network) SetLinkCapacityFactor(id topology.LinkID, factor float64) {
	if factor < 0 {
		panic(fmt.Sprintf("netsim: negative link capacity factor %g", factor))
	}
	n.caps[id] = n.baseCaps[id] * factor
	n.Trace.LinkCap(float64(n.sim.Now()), int(id), n.caps[id])
	n.scheduleRecompute()
}

// LinkCapacity returns link id's current (possibly fault-scaled) capacity.
func (n *Network) LinkCapacity(id topology.LinkID) float64 { return n.caps[id] }

// scheduleRecompute coalesces multiple same-instant flow-set changes into a
// single rate recomputation.
func (n *Network) scheduleRecompute() {
	//corralvet:ok floateq exact identity intended: both sides are the same des.Time instant; near-equal instants are distinct events
	if n.recomputeEv != nil && !n.recomputeEv.Canceled() && n.recomputeEv.At() == n.sim.Now() {
		return
	}
	n.recomputeEv = n.sim.After(0, n.recompute)
}

const completionEpsilon = 1e-3 // bytes; below this a flow is done

// loopbackRate is the transfer rate in bytes/sec of src==dst "flows"
// (data that never touches the network, e.g. a local disk read): an
// effectively instantaneous local copy.
const loopbackRate = 1e12

// recompute advances flows, completes finished ones, reallocates rates and
// schedules the next completion event.
func (n *Network) recompute() {
	// Clear the pending-recompute marker first: this call consumes it.
	// Without this, a flow-set change made by a *later* event at the same
	// instant would see a stale recomputeEv with At() == Now() and wrongly
	// skip scheduling, leaving flows without rates or completion events.
	n.recomputeEv = nil
	now := n.sim.Now()
	dt := float64(now - n.lastAdvance)
	n.lastAdvance = now

	// One pass charges the elapsed time to each flow and its links, then
	// completes finished flows and drops canceled ones. Completion
	// callbacks may start new flows; those schedule another recompute
	// event rather than recursing. The survivor filter runs in place
	// (write index trails read index) and finished flows land in a reused
	// scratch slice, so a steady-state recompute performs no slice
	// allocations.
	completed := n.completedScratch[:0]
	w := 0
	for _, f := range n.flows {
		if dt > 0 {
			// The conversion rounds the product on its own, so neither
			// the charge nor the clamp below fuses with it into a
			// multiply-add on any architecture.
			moved := float64(f.rate * dt)
			f.remaining -= moved
			if f.remaining < 0 {
				moved += f.remaining // clamp the overshoot
				f.remaining = 0
			}
			for _, l := range f.path {
				n.linkBytes[l] += moved
			}
		}
		switch {
		case f.canceled:
			// Account what actually crossed the wire before the abort.
			sent := f.Bytes - f.remaining
			n.Trace.FlowCancel(float64(n.sim.Now()), f.ID, sent)
			if sent > 0 {
				n.totalBytes += sent
				if f.CrossRack {
					n.totalCross += sent
					if f.JobID >= 0 {
						n.crossByJob[f.JobID] += sent
					}
				}
			}
			f.rate = 0
			if n.poolFlows {
				// Fully retired: accounted, traced, no callback pending
				// (cancel suppresses done). Recycle the object.
				n.flowPool = append(n.flowPool, f)
			}
		case f.remaining <= completionEpsilon:
			completed = append(completed, f)
		default:
			n.flows[w] = f
			w++
		}
	}
	for i := w; i < len(n.flows); i++ {
		n.flows[i] = nil // release dropped flows to the GC
	}
	n.flows = n.flows[:w]
	for _, f := range completed {
		f.remaining = 0
		f.rate = 0
		n.Trace.FlowFinish(float64(n.sim.Now()), f.ID, f.Bytes)
		n.flowsServed++
		n.totalBytes += f.Bytes
		if f.CrossRack {
			n.totalCross += f.Bytes
			if f.JobID >= 0 {
				n.crossByJob[f.JobID] += f.Bytes
			}
		}
		if f.done != nil {
			f.done(f)
		}
		if n.poolFlows {
			// The done callback has run (and per the pooling contract
			// dropped its references); the object is free to recycle. A
			// flow started from inside a later done callback in this batch
			// may legitimately reuse it.
			n.flowPool = append(n.flowPool, f)
		}
	}
	for i := range completed {
		completed[i] = nil // don't let the scratch slice pin finished flows
	}
	n.completedScratch = completed[:0]

	if n.completionEv != nil {
		n.completionEv.Cancel()
		n.completionEv = nil
	}
	if len(n.flows) == 0 {
		n.traceAllocation() // report links draining to zero utilization
		return
	}

	n.policy.Allocate(n.flows, n.caps, n.scratch)
	if n.OnAllocate != nil {
		n.OnAllocate()
	}
	n.traceAllocation()

	// Next completion.
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		// All flows starved; nothing will complete until the flow set
		// changes again. Legitimate only when a failed link (capacity
		// forced to zero by SetLinkCapacityFactor) is parking every flow:
		// those resume when the link recovers, which schedules another
		// recompute. A starved flow whose links all have capacity is a
		// modelling bug — the allocation policies guarantee a positive
		// rate otherwise.
		for _, f := range n.flows {
			parked := false
			for _, l := range f.path {
				if n.caps[l] <= 0 {
					parked = true
					break
				}
			}
			if !parked {
				panic("netsim: active flow starved with no pending change")
			}
		}
		return
	}
	n.completionEv = n.sim.After(des.Time(next), n.recompute)
}

// AuditFeasibility checks the current allocation against the per-link
// feasibility invariant: no negative rates, and the aggregate rate over
// each link within capacity (relative slack plus a small absolute epsilon
// for float rounding). It returns nil when feasible, an error naming the
// first violation otherwise. Intended to be called from OnAllocate by the
// invariant monitor.
func (n *Network) AuditFeasibility(slack float64) error {
	const absEps = 1e-3 // bytes/sec; rates are O(1e8), rounding is far below
	load := n.clearedLinkLoad()
	for _, f := range n.flows {
		if f.canceled {
			continue
		}
		if f.rate < 0 {
			return fmt.Errorf("netsim audit: flow %d has negative rate %g", f.ID, f.rate)
		}
		for _, l := range f.path {
			load[l] += f.rate
		}
	}
	for l, sum := range load {
		if sum > float64(n.caps[l]*(1+slack))+absEps { // no fused multiply-add
			return fmt.Errorf("netsim audit: link %d carries %g B/s, capacity %g", l, sum, n.caps[l])
		}
	}
	return nil
}

// clearedLinkLoad returns linkLoad zeroed, allocating it on first use.
func (n *Network) clearedLinkLoad() []float64 {
	if n.linkLoad == nil {
		n.linkLoad = make([]float64, len(n.caps))
	}
	clear(n.linkLoad)
	return n.linkLoad
}

// LinkBytes returns the bytes carried so far by the given link.
func (n *Network) LinkBytes(id topology.LinkID) float64 { return n.linkBytes[id] }

// traceAllocation reports the outcome of a rate recomputation to the
// tracer: per-flow rate changes and per-link utilization changes, both
// emit-on-change so stable allocations cost nothing. Runs only with a
// tracer enabled; the whole walk is skipped on the disabled path.
func (n *Network) traceAllocation() {
	if !n.Trace.Enabled() {
		return
	}
	now := float64(n.sim.Now())
	if n.prevUtil == nil {
		n.prevUtil = make([]float64, len(n.caps))
	}
	linkLoad := n.clearedLinkLoad()
	for _, f := range n.flows {
		//corralvet:ok floateq emit-on-change gate: exact rate identity means "nothing to report", near-equal rates are real changes
		if f.rate != f.lastRate {
			n.Trace.FlowRate(now, f.ID, f.rate)
			f.lastRate = f.rate
		}
		for _, l := range f.path {
			linkLoad[l] += f.rate
		}
	}
	for l, load := range linkLoad {
		util := 0.0
		if n.caps[l] > 0 {
			util = load / n.caps[l]
		}
		//corralvet:ok floateq emit-on-change gate: exact utilization identity means "nothing to report", near-equal samples are real changes
		if util != n.prevUtil[l] {
			n.Trace.LinkUtil(now, l, util)
			n.prevUtil[l] = util
		}
	}
}

// Rates returns a snapshot of (flow, rate) for inspection in tests.
func (n *Network) Rates() map[int64]float64 {
	out := make(map[int64]float64, len(n.flows))
	for _, f := range n.flows {
		out[f.ID] = f.rate
	}
	return out
}
