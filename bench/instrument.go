package main

import (
	"reflect"
	"sort"

	"corral"
)

// instrumented runs the two extra passes of a round and returns the
// per-layer metrics. The span run repeats a rep with a span around every
// library call and every Allocate; the counting run replays the rep's
// Simulate calls with a Tracer and an InvariantMonitor attached. Both must
// reproduce the warm-up rep's outputs exactly. Span times are wall time;
// the overheads compare CPU times, as the timed reps do.
func (in *instance) instrumented(c *checker, ref *repOut, plain []repRecord, traceOut string) map[string]float64 {
	layers := map[string]float64{}

	sp := newSpans(1 << 16)
	root := sp.push("workload " + in.w.name)
	repSpan := sp.push("rep")
	o, err := in.rep(sp, nil)
	sp.pop(repSpan)
	sp.pop(root)
	if !c.check(err == nil, "span run: %v", err) {
		return layers
	}
	verifyRep(c, ref, o)
	if traceOut != "" {
		c.check(writeChromeTrace(traceOut, sp.list) == nil, "writing %s", traceOut)
	}

	self := selfTimes(sp.list)
	var simNs, simSelfNs, allocNs int64
	for i, s := range sp.list {
		switch s.name {
		case "simulate":
			simNs += s.end - s.start
			simSelfNs += self[i]
		case "allocate":
			allocNs += s.end - s.start
		}
	}
	var st allocStats
	roundsOK := true
	for _, a := range o.alloc {
		st.calls += a.calls
		st.flows += a.flows
		st.incremental += a.incremental
		st.full += a.full
		roundsOK = roundsOK && a.roundsOK
	}

	var events uint64
	replans, repairBytes := 0, 0.0
	for _, res := range ref.results {
		events += res.Events
		replans += res.Replans
		repairBytes += res.RepairBytes
	}
	plainSim := median(plain, func(r repRecord) float64 { return r.SimS })

	layers["netsim.allocate_calls"] = float64(st.calls)
	layers["netsim.allocate_s"] = seconds(allocNs)
	layers["netsim.allocate_share"] = ratio(float64(allocNs), float64(simNs))
	layers["netsim.allocate_us_per_call"] = ratio(float64(allocNs)/1e3, float64(st.calls))
	layers["netsim.flows_per_allocate"] = ratio(float64(st.flows), float64(st.calls))
	if roundsOK {
		layers["netsim.incremental_rounds"] = float64(st.incremental)
		layers["netsim.full_rounds"] = float64(st.full)
		layers["netsim.incremental_frac"] = ratio(float64(st.incremental), float64(st.incremental+st.full))
	}
	layers["runtime.self_s"] = seconds(simSelfNs)
	layers["runtime.self_ns_per_event"] = ratio(float64(simSelfNs), float64(events))
	layers["runtime.allocs_per_event"] = median(plain, func(r repRecord) float64 { return ratio(float64(r.Mallocs), float64(r.Events)) })
	layers["runtime.gc_cycles"] = median(plain, func(r repRecord) float64 { return float64(r.GCCycles) })
	layers["runtime.gc_pause_ms"] = median(plain, func(r repRecord) float64 { return float64(r.GCPauseNs) / 1e6 })
	layers["runtime.events"] = float64(events)
	layers["planner.candidates"] = float64(in.candidates())
	layers["planner.us_per_candidate"] = median(plain, func(r repRecord) float64 { return r.PlanS * 1e6 / float64(in.candidates()) })
	layers["planner.objective_s"] = ref.plan.ObjectiveValue()
	layers["planner.replans"] = float64(replans)
	layers["dfs.repair_gb"] = repairBytes / 1e9
	layers["snapshot.capture_s"] = median(plain, func(r repRecord) float64 { return r.CaptureS })
	layers["snapshot.encode_s"] = median(plain, func(r repRecord) float64 { return r.EncodeS })
	layers["snapshot.decode_s"] = median(plain, func(r repRecord) float64 { return r.DecodeS })
	layers["snapshot.resume_s"] = median(plain, func(r repRecord) float64 { return r.ResumeS })
	layers["snapshot.bytes"] = float64(ref.snapBytes)
	layers["snapshot.replayed_events"] = float64(ref.replayed)
	layers["bench.span_overhead_pct"] = 100 * ratio(o.simS-plainSim, plainSim)
	layers["bench.probe_s"] = median(plain, func(r repRecord) float64 { return r.SimProbeS })

	cnt, countCPU := in.countingRun(c, ref)
	layers["netsim.flows"] = cnt.kinds["flow_start"]
	layers["netsim.flow_cancels"] = cnt.kinds["flow_cancel"]
	layers["netsim.rate_changes"] = cnt.kinds["flow_rate"]
	layers["netsim.crossrack_flow_frac"] = ratio(cnt.crossFlows, cnt.kinds["flow_start"])
	layers["netsim.link_cap_changes"] = cnt.kinds["link_cap"]
	layers["runtime.tasks"] = cnt.kinds["task_start"]
	layers["runtime.task_aborts"] = cnt.kinds["task_abort"]
	layers["runtime.machine_failures"] = cnt.kinds["machine_down"]
	layers["planner.replan_jobs"] = cnt.replanJobs
	layers["dfs.block_reads"] = cnt.kinds["block_read"]
	layers["dfs.failover_reads"] = cnt.failoverReads
	layers["dfs.repairs"] = cnt.kinds["repair_commit"]
	layers["trace.events"] = cnt.events
	layers["trace.overhead_pct"] = 100 * ratio(countCPU-o.simS, o.simS)
	layers["invariants.violations"] = cnt.violations
	return layers
}

// counts tallies the counting run's trace events.
type counts struct {
	kinds                                         map[string]float64
	events, crossFlows, failoverReads, replanJobs float64
	violations                                    float64
}

// countingRun replays the rep's Simulate calls with a fresh Tracer and
// InvariantMonitor each and returns the tallies and the summed CPU time.
func (in *instance) countingRun(c *checker, ref *repOut) (counts, float64) {
	cnt := counts{kinds: map[string]float64{}}
	cpu := 0.0
	for i, cfg := range in.configs(ref.plan) {
		tr := &corral.Tracer{}
		mon := corral.NewInvariantMonitor(in.cluster)
		cfg.Trace, cfg.Probe = tr, mon
		jobs := corral.CloneJobs(in.jobs)
		c0 := cpuSeconds()
		res, err := corral.Simulate(cfg, jobs)
		cpu += cpuSeconds() - c0
		if !c.check(err == nil, "counting run: %v", err) {
			continue
		}
		c.check(reflect.DeepEqual(res, ref.results[i]), "%v Result with tracing differs from the plain run's", cfg.Scheduler)
		c.check(mon.Ended(), "%v: invariant monitor saw no end of run", cfg.Scheduler)
		cnt.violations += float64(mon.ViolationCount())
		for _, e := range tr.Events() {
			kind := e.Kind.String()
			cnt.kinds[kind]++
			switch {
			case kind == "flow_start" && e.Detail == "cross":
				cnt.crossFlows++
			case kind == "block_read" && e.Detail == "failover":
				cnt.failoverReads++
			case kind == "replan":
				cnt.replanJobs += e.Value
			}
		}
		cnt.events += float64(len(tr.Events()))
	}
	return cnt, cpu
}

// candidates is the planner's provisioning search size, J·(R−1)+1.
func (in *instance) candidates() int {
	return len(in.jobs)*(in.cluster.Racks-1) + 1
}

func median(recs []repRecord, f func(repRecord) float64) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
