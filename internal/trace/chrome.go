package trace

// Chrome trace-event export (the Perfetto/chrome://tracing JSON format).
// Each run becomes one "process": machine slots are thread lanes carrying
// task-attempt spans (ph "X", with the reduce shuffle phase as a nested
// span), slot occupancy and per-link utilization are counter tracks
// (ph "C"), and job/machine/AM/plan/repair lifecycle events are process-
// scoped instants (ph "i") on a "cluster" lane. High-volume flow-level
// events (flow_start/finish/rate, block_read, task_queued/backoff) are
// JSONL-only — Perfetto is for the timeline shape, the JSONL stream for
// scripting.
//
// Timestamps are simulation seconds scaled to microseconds. The encoder
// is hand-rolled like jsonl.go and consumes sortedRuns(), so the output
// bytes are a pure function of the collected events.

import "io"

// chromeLaneBase offsets machine lanes past the cluster lane (tid 0).
// Machine m's slot-lane l gets tid = chromeLaneBase + m*chromeMaxLanes + l.
const (
	chromeLaneBase = 1000
	chromeMaxLanes = 64
)

type spanKey struct {
	role             Role
	job, stage, task int
}

type openSpan struct {
	start     float64
	att       int
	machine   int
	lane      int
	shuffleAt float64 // reduce shuffle end, -1 until shuffle_done
}

// chromeWriter accumulates trace-event objects for one export.
type chromeWriter struct {
	w     io.Writer
	buf   []byte
	first bool
	err   error
	named map[int]bool // lane tids with thread metadata already emitted
}

func (cw *chromeWriter) flush() {
	if cw.err != nil || len(cw.buf) == 0 {
		cw.buf = cw.buf[:0]
		return
	}
	_, cw.err = cw.w.Write(cw.buf)
	cw.buf = cw.buf[:0]
}

// open starts one trace-event object, handling the comma separator.
func (cw *chromeWriter) open(ph string, pid, tid int) {
	if cw.first {
		cw.first = false
	} else {
		cw.buf = append(cw.buf, ',', '\n')
	}
	cw.buf = append(cw.buf, `{"ph":"`...)
	cw.buf = append(cw.buf, ph...)
	cw.buf = append(cw.buf, `","pid":`...)
	cw.buf = appendInt(cw.buf, int64(pid))
	cw.buf = append(cw.buf, `,"tid":`...)
	cw.buf = appendInt(cw.buf, int64(tid))
}

func (cw *chromeWriter) ts(t float64) {
	cw.buf = append(cw.buf, `,"ts":`...)
	cw.buf = appendFloat(cw.buf, t*1e6)
}

func (cw *chromeWriter) name(n string) {
	cw.buf = append(cw.buf, `,"name":`...)
	cw.buf = appendJSONString(cw.buf, n)
}

func (cw *chromeWriter) close() {
	cw.buf = append(cw.buf, '}')
	if len(cw.buf) >= 1<<16 {
		cw.flush()
	}
}

// meta emits a metadata record with a single string arg "name".
func (cw *chromeWriter) meta(kind string, pid, tid int, value string) {
	cw.open("M", pid, tid)
	cw.name(kind)
	cw.buf = append(cw.buf, `,"args":{"name":`...)
	cw.buf = appendJSONString(cw.buf, value)
	cw.buf = append(cw.buf, '}')
	cw.close()
}

// sortIndex pins a lane's UI position.
func (cw *chromeWriter) sortIndex(pid, tid, idx int) {
	cw.open("M", pid, tid)
	cw.name("thread_sort_index")
	cw.buf = append(cw.buf, `,"args":{"sort_index":`...)
	cw.buf = appendInt(cw.buf, int64(idx))
	cw.buf = append(cw.buf, '}')
	cw.close()
}

// instant emits a process-scoped instant on the cluster lane.
func (cw *chromeWriter) instant(pid int, t float64, name string) {
	cw.open("i", pid, 0)
	cw.ts(t)
	cw.name(name)
	cw.buf = append(cw.buf, `,"cat":"lifecycle","s":"p"`...)
	cw.close()
}

// counter emits one sample of a named counter track.
func (cw *chromeWriter) counter(pid int, t float64, track, series string, v float64) {
	cw.open("C", pid, 0)
	cw.ts(t)
	cw.name(track)
	cw.buf = append(cw.buf, `,"args":{"`...)
	cw.buf = append(cw.buf, series...)
	cw.buf = append(cw.buf, `":`...)
	cw.buf = appendFloat(cw.buf, v)
	cw.buf = append(cw.buf, '}')
	cw.close()
}

// span emits a complete (ph "X") task-attempt span.
func (cw *chromeWriter) span(pid, tid int, start, end float64, name string, e *Event, att int, status string) {
	cw.open("X", pid, tid)
	cw.ts(start)
	cw.buf = append(cw.buf, `,"dur":`...)
	cw.buf = appendFloat(cw.buf, (end-start)*1e6)
	cw.name(name)
	cw.buf = append(cw.buf, `,"cat":"task","args":{"job":`...)
	cw.buf = appendInt(cw.buf, int64(e.Job))
	cw.buf = append(cw.buf, `,"stage":`...)
	cw.buf = appendInt(cw.buf, int64(e.Stage))
	cw.buf = append(cw.buf, `,"task":`...)
	cw.buf = appendInt(cw.buf, int64(e.Task))
	cw.buf = append(cw.buf, `,"att":`...)
	cw.buf = appendInt(cw.buf, int64(att))
	cw.buf = append(cw.buf, `,"status":"`...)
	cw.buf = append(cw.buf, status...)
	cw.buf = append(cw.buf, '"', '}')
	cw.close()
}

// taskName renders "map j3 s0 t17" without fmt (export-path hot loop).
func taskName(role Role, job, stage, task int) string {
	b := make([]byte, 0, 24)
	b = append(b, role.String()...)
	b = append(b, " j"...)
	b = appendInt(b, int64(job))
	b = append(b, " s"...)
	b = appendInt(b, int64(stage))
	b = append(b, " t"...)
	b = appendInt(b, int64(task))
	return string(b)
}

func machineLaneName(machine, lane, rack int) string {
	b := make([]byte, 0, 24)
	b = append(b, 'm')
	b = appendInt(b, int64(machine))
	b = append(b, " s"...)
	b = appendInt(b, int64(lane))
	b = append(b, " (rack "...)
	b = appendInt(b, int64(rack))
	b = append(b, ')')
	return string(b)
}

// WriteChrome writes the collected runs as a Chrome trace-event JSON
// document, one process per run, deterministically ordered and encoded.
func (c *Collector) WriteChrome(w io.Writer) error {
	cw := &chromeWriter{w: w, first: true}
	cw.buf = append(cw.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	cw.buf = append(cw.buf, '\n')
	for i, run := range c.sortedRuns() {
		pid := i + 1
		writeChromeRun(cw, pid, run)
		if cw.err != nil {
			return cw.err
		}
	}
	cw.buf = append(cw.buf, "\n]}\n"...)
	cw.flush()
	return cw.err
}

func writeChromeRun(cw *chromeWriter, pid int, run runBlob) {
	cw.meta("process_name", pid, 0, run.label)
	cw.meta("thread_name", pid, 0, "cluster")
	cw.sortIndex(pid, 0, 0)

	rackOf := map[int]int{}      // machine → rack (from machine_meta)
	linkName := map[int]string{} // link → name (from link_meta)
	laneBusy := map[int][]bool{} // machine → slot-lane occupancy
	open := map[spanKey]*openSpan{}

	link := func(id int) string {
		if n, ok := linkName[id]; ok {
			return n
		}
		return "link" + string(appendInt(nil, int64(id)))
	}

	for ei := range run.t.events {
		e := &run.t.events[ei]
		switch e.Kind {
		case KMachineMeta:
			rackOf[e.Mach] = e.Src
		case KLinkMeta:
			linkName[e.Link] = e.Detail

		case KTaskStart:
			lanes := laneBusy[e.Mach]
			if lanes == nil {
				lanes = make([]bool, chromeMaxLanes)
				laneBusy[e.Mach] = lanes
			}
			lane := chromeMaxLanes - 1
			for l := range lanes {
				if !lanes[l] {
					lane = l
					break
				}
			}
			if !lanes[lane] {
				lanes[lane] = true
				tid := chromeLaneBase + e.Mach*chromeMaxLanes + lane
				if !cw.laneNamed(tid) {
					cw.meta("thread_name", pid, tid, machineLaneName(e.Mach, lane, rackOf[e.Mach]))
					cw.sortIndex(pid, tid, tid)
				}
			}
			open[spanKey{e.Role, e.Job, e.Stage, e.Task}] = &openSpan{
				start: e.T, att: e.Att, machine: e.Mach, lane: lane, shuffleAt: -1,
			}

		case KShuffleDone:
			if sp := open[spanKey{RoleReduce, e.Job, e.Stage, e.Task}]; sp != nil {
				sp.shuffleAt = e.T
			}

		case KTaskFinish, KTaskCrash, KTaskAbort:
			k := spanKey{e.Role, e.Job, e.Stage, e.Task}
			sp := open[k]
			if sp == nil {
				break
			}
			delete(open, k)
			if lanes := laneBusy[sp.machine]; lanes != nil && sp.lane < len(lanes) {
				lanes[sp.lane] = false
			}
			status := "ok"
			if e.Kind == KTaskCrash {
				status = "crash"
			} else if e.Kind == KTaskAbort {
				status = "abort"
			}
			tid := chromeLaneBase + sp.machine*chromeMaxLanes + sp.lane
			cw.span(pid, tid, sp.start, e.T, taskName(e.Role, e.Job, e.Stage, e.Task), e, sp.att, status)
			if e.Role == RoleReduce && sp.shuffleAt >= sp.start {
				cw.span(pid, tid, sp.start, sp.shuffleAt, "shuffle", e, sp.att, "ok")
			}

		case KSlotsBusy:
			cw.counter(pid, e.T, "slots busy", "busy", e.Value)
		case KLinkUtil:
			cw.counter(pid, e.T, "util "+link(e.Link), "util", e.Value)
		case KLinkCap:
			cw.instant(pid, e.T, "link "+link(e.Link)+" cap "+string(appendFloat(nil, e.Value)))

		case KJobSubmit:
			cw.instant(pid, e.T, "submit j"+string(appendInt(nil, int64(e.Job)))+" "+e.Detail)
		case KJobDone:
			cw.instant(pid, e.T, "done j"+string(appendInt(nil, int64(e.Job))))
		case KJobFail:
			cw.instant(pid, e.T, "fail j"+string(appendInt(nil, int64(e.Job)))+": "+e.Detail)
		case KMachineDown:
			cw.instant(pid, e.T, "m"+string(appendInt(nil, int64(e.Mach)))+" down")
		case KMachineUp:
			cw.instant(pid, e.T, "m"+string(appendInt(nil, int64(e.Mach)))+" up")
		case KBlacklist:
			cw.instant(pid, e.T, "m"+string(appendInt(nil, int64(e.Mach)))+" blacklisted")
		case KUnblacklist:
			cw.instant(pid, e.T, "m"+string(appendInt(nil, int64(e.Mach)))+" unblacklisted")
		case KAMFail:
			cw.instant(pid, e.T, "AM fail j"+string(appendInt(nil, int64(e.Job))))
		case KAMRestart:
			cw.instant(pid, e.T, "AM restart j"+string(appendInt(nil, int64(e.Job))))
		case KReplan:
			cw.instant(pid, e.T, "replan ("+string(appendInt(nil, int64(e.Value)))+" jobs)")
		case KSimEnd:
			cw.instant(pid, e.T, "quiesce")
		case KDFSCorrupt:
			cw.instant(pid, e.T, "corrupt replica m"+string(appendInt(nil, int64(e.Mach))))
		case KRepairStart:
			cw.instant(pid, e.T, "repair m"+string(appendInt(nil, int64(e.Src)))+"→m"+string(appendInt(nil, int64(e.Dst))))
		case KRepairCommit:
			cw.instant(pid, e.T, "repair commit m"+string(appendInt(nil, int64(e.Dst))))
		case KPlanStart:
			cw.instant(pid, e.T, "plan start ("+string(appendInt(nil, int64(e.Value)))+" jobs, "+e.Detail+")")
		case KPlanAssign:
			cw.instant(pid, e.T, "plan j"+string(appendInt(nil, int64(e.Job)))+" → "+e.Detail)
		case KPlanDone:
			cw.instant(pid, e.T, "plan done")
		case KPlanBudgetExceeded:
			cw.instant(pid, e.T, "plan budget exceeded (cost "+string(appendFloat(nil, e.Value))+"s)")
		case KDegrade:
			tier := "incremental"
			if e.Att == 2 {
				tier = "greedy"
			}
			cw.instant(pid, e.T, "degrade → "+tier+" ("+string(appendInt(nil, int64(e.Value)))+" jobs)")
		case KReplanSuppressed:
			cw.instant(pid, e.T, "replan suppressed (fires t="+string(appendFloat(nil, e.Value))+")")
		case KJobDeferred:
			cw.instant(pid, e.T, "defer j"+string(appendInt(nil, int64(e.Job)))+" (queue "+string(appendInt(nil, int64(e.Value)))+")")
		case KJobShed:
			cw.instant(pid, e.T, "shed j"+string(appendInt(nil, int64(e.Job)))+" (queue "+string(appendInt(nil, int64(e.Value)))+")")
		case KAudit:
			cw.instant(pid, e.T, "audit failed: "+e.Detail)
		}
		if cw.err != nil {
			return
		}
	}
	cw.resetLanes()
}

// laneNamed tracks which lane tids already carry thread metadata, per run.
func (cw *chromeWriter) laneNamed(tid int) bool {
	if cw.named == nil {
		cw.named = map[int]bool{}
	}
	if cw.named[tid] {
		return true
	}
	cw.named[tid] = true
	return false
}

func (cw *chromeWriter) resetLanes() { cw.named = nil }
