package main

import "corral"

// allocator is corral.FlowPolicy with its flow type left as a parameter:
// the benchmark lives outside the corral module, so it cannot name the
// flow type, but Go infers F from the policy passed to timePolicy.
type allocator[F any] interface {
	Allocate(flows []F, caps, scratch []float64)
	Name() string
}

// timedPolicy forwards to the runtime's default allocator and records a
// span and a count around every Allocate call. It changes no rate, so a
// run through it must produce a Result DeepEqual to a plain run's.
type timedPolicy[F any] struct {
	inner allocator[F]
	sp    *spans
	calls int
	flows int
}

func timePolicy[F any](inner allocator[F], sp *spans) *timedPolicy[F] {
	return &timedPolicy[F]{inner: inner, sp: sp}
}

func (p *timedPolicy[F]) Name() string { return p.inner.Name() }

func (p *timedPolicy[F]) Allocate(flows []F, caps, scratch []float64) {
	i := p.sp.push("allocate")
	p.inner.Allocate(flows, caps, scratch)
	p.sp.pop(i)
	p.calls++
	p.flows += len(flows)
}

// allocStats is what the wrapper counted over one run.
type allocStats struct {
	calls, flows      int
	incremental, full int
	roundsOK          bool // false when the allocator exposes no Rounds()
}

// stats reads the inner allocator's incremental and full-pass counts
// through an interface assertion rather than a concrete type, so an
// allocator without the counter yields missing metrics, not a build break.
func (p *timedPolicy[F]) stats() allocStats {
	st := allocStats{calls: p.calls, flows: p.flows}
	if r, ok := p.inner.(interface{ Rounds() (int, int) }); ok {
		st.incremental, st.full = r.Rounds()
		st.roundsOK = true
	}
	return st
}

// instrumentedPolicy is a flow policy that reports allocStats.
type instrumentedPolicy interface {
	corral.FlowPolicy
	stats() allocStats
}

// newTimedPolicy wraps a fresh instance of the runtime default,
// corral.TCPIncremental. corral.TCP is the ~10x slower reference allocator
// and would distort every share this benchmark reports.
func newTimedPolicy(sp *spans) instrumentedPolicy {
	return timePolicy(corral.TCPIncremental(), sp)
}
