package main

import (
	"math/rand"
	"runtime"
	"sync"
)

// The host-speed probe.
//
// On a shared virtual machine the CPU time of one and the same call moves
// by a factor of up to 1.7 within minutes, as other tenants come and go on
// the cores and caches it shares; the wall clock moves more, since the
// hypervisor also takes whole time slices away. The probe is a fixed piece
// of code that slows down with the simulator: a small discrete-event loop
// over a binary heap of timed events, a map lookup and a fair-share pass
// over a few links, with no allocation. One copy runs on every CPU the
// process may use at once, since the scheduler moves the simulator between
// them and the planner uses them all. Each round times the probe before and
// after its set-up and after every step of a timed rep, and the end-to-end
// timings are reported in reference seconds: CPU seconds scaled by
// probeRefS over the mean of the probe times around them. The probe is part
// of the benchmark, not of the program, so two commits compared with the
// same benchmark run the same probe, and a change to the program moves only
// the numerator.

const (
	probeFlows  = 4096
	probeEvents = 400_000
	// probeRefS is one probe copy's CPU time on a quiet 2-vCPU Intel Xeon
	// virtual machine, the host the benchmark's spreads were measured on.
	probeRefS = 0.056
)

type probeEvent struct {
	t  float64
	id int32
}

type probeFlow struct {
	rem, rate float64
	link      int32
}

// probes holds one probe copy per CPU.
type probes []*probe

func newProbes() probes {
	ps := make(probes, runtime.GOMAXPROCS(0))
	for i := range ps {
		ps[i] = newProbe()
	}
	return ps
}

// seconds runs every copy at once and returns the CPU time per copy. It
// collects garbage first, so that no collection left over from the program
// runs while the probe is timed.
func (ps probes) seconds() float64 {
	runtime.GC()
	var wg sync.WaitGroup
	wg.Add(len(ps))
	c0 := cpuSeconds()
	for _, p := range ps {
		go func() {
			defer wg.Done()
			p.sink += p.run()
		}()
	}
	wg.Wait()
	return (cpuSeconds() - c0) / float64(len(ps))
}

// hostClock times the probe between the steps of a rep, so that each step
// is scaled by the probe times just before and just after it.
type hostClock struct {
	ps   probes
	last float64 // the latest probe time
}

func newHostClock() *hostClock { return &hostClock{ps: newProbes()} }

// mark times the probe and returns the mean of this and the previous probe
// time: the host's speed over the step between them. A nil clock returns 0.
func (h *hostClock) mark() float64 {
	if h == nil {
		return 0
	}
	now := h.ps.seconds()
	mean := (h.last + now) / 2
	h.last = now
	return mean
}

type probe struct {
	heap  []probeEvent
	flows []probeFlow
	index map[int32]int32 // flow key → position in flows
	load  []float64       // flows per link in the current pass
	sink  float64
}

func newProbe() *probe {
	p := &probe{
		heap:  make([]probeEvent, 0, probeFlows),
		flows: make([]probeFlow, probeFlows),
		index: make(map[int32]int32, probeFlows),
		load:  make([]float64, 64),
	}
	r := rand.New(rand.NewSource(3))
	for i := range p.flows {
		p.flows[i] = probeFlow{rem: r.Float64() * 1e9, link: int32(i % len(p.load))}
		p.index[probeKey(int32(i))] = int32(i)
	}
	return p
}

func probeKey(id int32) int32 { return id * 7919 }

func (p *probe) run() float64 {
	p.heap = p.heap[:0]
	for i := range p.flows {
		p.push(probeEvent{float64(i%97) * 0.01, int32(i)})
	}
	sum := 0.0
	for k := 0; k < probeEvents; k++ {
		e := p.pop()
		f := &p.flows[p.index[probeKey(e.id)]]
		f.rem -= f.rate * 0.001
		if f.rem < 0 {
			f.rem = 1e9
		}
		if k%8 == 0 {
			// Fair share of 32 neighbouring flows over their links.
			for i := range p.load {
				p.load[i] = 0
			}
			base := int(e.id) * 31 % (len(p.flows) - 32)
			for _, g := range p.flows[base : base+32] {
				p.load[g.link]++
			}
			for j := base; j < base+32; j++ {
				g := &p.flows[j]
				g.rate = 1e9 / p.load[g.link]
				sum += g.rate
			}
		}
		p.push(probeEvent{e.t + 0.001 + float64(k%13)*0.0007, e.id})
	}
	return sum
}

func (p *probe) push(e probeEvent) {
	p.heap = append(p.heap, e)
	h := p.heap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].t <= h[i].t {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (p *probe) pop() probeEvent {
	h := p.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	p.heap = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].t < h[c].t {
			c++
		}
		if h[i].t <= h[c].t {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}
