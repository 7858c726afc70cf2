package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// emitAll exercises every emit method once against t (which may be nil).
func emitAll(t *Tracer) {
	t.MachineMeta(3, 1)
	t.LinkMeta(2, "rack1-up", 1e9)
	t.JobSubmit(0.5, 0, "job-a", 40)
	t.JobDone(9.5, 0)
	t.JobFail(9.6, 1, "am retries exhausted")
	t.TaskQueued(1, RoleMap, 0, 0, 7, 1)
	t.TaskStart(1.5, RoleMap, 0, 0, 7, 1, 3)
	t.TaskFinish(2.5, RoleMap, 0, 0, 7, 1, 3, 1.0)
	t.TaskCrash(2.6, RoleMap, 0, 0, 8, 1, 4)
	t.TaskAbort(2.7, RoleReduce, 0, 1, 2, 1, 5)
	t.TaskBackoff(2.8, RoleMap, 0, 0, 8, 2, 0.25)
	t.ShuffleDone(3.0, 0, 1, 2, 5)
	t.SlotsBusy(3.1, 12)
	t.MachineDown(4, 9)
	t.MachineUp(5, 9)
	t.Blacklist(5.5, 4)
	t.Unblacklist(6.5, 4)
	t.AMFail(6.6, 1)
	t.AMRestart(6.9, 1)
	t.Replan(7, 3)
	t.SimEnd(10.25)
	t.FlowStart(1.1, 42, 0, 3, 5, 1<<20, true)
	t.FlowFinish(1.9, 42, 1<<20)
	t.FlowCancel(1.95, 43, 512)
	t.FlowRate(1.2, 42, 5e8)
	t.LinkUtil(1.2, 2, 0.75)
	t.LinkCap(4.5, 2, 5e8)
	t.DFSCreate(0, "input-0", 1<<30)
	t.DFSCorrupt(3.3, 6, 1<<26)
	t.BlockRead(1.4, 0, 3, 11, 1<<26, true)
	t.RepairStart(4.1, 6, 8, 1<<26)
	t.RepairCommit(4.9, 6, 8, 1<<26)
	t.PlanStart(0, 5, "makespan")
	t.PlanAssign(0, 0, 1, 0.0, []int{0, 2})
	t.PlanDone(0, 123.5)
	t.Audit(8, "link 4 oversubscribed")
}

// emitAllCount must track emitAll: one event per call above.
const emitAllCount = 36

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	emitAll(tr) // must not panic
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	if tr.Label() != "" || tr.Events() != nil {
		t.Fatal("nil tracer leaked state")
	}
}

func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		tr.TaskStart(1, RoleMap, 0, 0, 1, 1, 2)
		tr.TaskFinish(2, RoleMap, 0, 0, 1, 1, 2, 1)
		tr.FlowStart(1, 7, 0, 1, 2, 1e6, false)
		tr.LinkUtil(1, 3, 0.5)
		tr.SlotsBusy(1, 4)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %v allocs/op, want 0", allocs)
	}
}

func TestEmitAllBuffered(t *testing.T) {
	tr := New("test")
	emitAll(tr)
	if got := len(tr.Events()); got != emitAllCount {
		t.Fatalf("buffered %d events, want %d", got, emitAllCount)
	}
	if !tr.Enabled() || tr.Label() != "test" {
		t.Fatal("tracer state wrong")
	}
}

// kindCounter is an Observer tallying events per kind.
type kindCounter map[Kind]int

func (c kindCounter) Observe(e Event) { c[e.Kind]++ }

// TestObserved: an observed tracer hands every event to the observer and
// buffers it in the wrapped tracer; wrapping nil buffers nothing, and a
// nil observer leaves the tracer as it was.
func TestObserved(t *testing.T) {
	inner := New("run")
	seen := kindCounter{}
	tr := Observed(inner, seen)
	emitAll(tr)
	if got := len(inner.Events()); got != emitAllCount {
		t.Fatalf("wrapped tracer buffered %d events, want %d", got, emitAllCount)
	}
	if got := len(tr.Events()); got != emitAllCount || tr.Label() != "run" {
		t.Fatalf("observed tracer reports %d events, label %q", got, tr.Label())
	}
	total := 0
	for _, n := range seen {
		total += n
	}
	if total != emitAllCount || seen[KAudit] != 1 {
		t.Fatalf("observer saw %d events (%d audits), want %d (1)", total, seen[KAudit], emitAllCount)
	}

	alone := kindCounter{}
	tr = Observed(nil, alone)
	emitAll(tr)
	if !tr.Enabled() || tr.Events() != nil || alone[KTaskStart] != 1 {
		t.Fatalf("observer-only tracer: enabled=%v events=%d task starts seen=%d", tr.Enabled(), len(tr.Events()), alone[KTaskStart])
	}
	if Observed(inner, nil) != inner {
		t.Fatal("a nil observer must return the tracer unchanged")
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == "" {
			t.Errorf("Kind %d has no name", k)
		}
		if kindFields[k] == 0 && k != KJobDone {
			// every kind except pure-identity ones defines fields; job_done
			// legitimately has only fJob, so 0 means a table gap.
			if kindFields[k] == 0 {
				t.Errorf("Kind %s has no field mask", k)
			}
		}
	}
	if Kind(200).String() != "kind?" {
		t.Error("out-of-range Kind String")
	}
	if RoleMap.String() != "map" || RoleReduce.String() != "reduce" || RoleNone.String() != "" {
		t.Error("Role String wrong")
	}
}

func TestJSONLValid(t *testing.T) {
	c := NewCollector()
	emitAll(c.NewRun("run-a"))
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != emitAllCount+1 {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), emitAllCount+1)
	}
	var hdr struct {
		Run    int    `json:"run"`
		Label  string `json:"label"`
		Events int    `json:"events"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header not JSON: %v", err)
	}
	if hdr.Label != "run-a" || hdr.Events != emitAllCount {
		t.Fatalf("bad header %+v", hdr)
	}
	for i, ln := range lines[1:] {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i+1, err, ln)
		}
		if _, ok := m["ev"]; !ok {
			t.Fatalf("line %d missing ev: %s", i+1, ln)
		}
		if _, ok := m["t"]; !ok {
			t.Fatalf("line %d missing t: %s", i+1, ln)
		}
	}
	// Pin a couple of format details the replay tests depend on.
	if !strings.Contains(buf.String(), `"ev":"task_start","role":"map","job":0,"stage":0,"task":7,"att":1,"mach":3`) {
		t.Error("task_start line format drifted")
	}
	if !strings.Contains(buf.String(), `"ev":"flow_start"`) || !strings.Contains(buf.String(), `"detail":"cross"`) {
		t.Error("flow_start cross marker missing")
	}
	if !strings.Contains(buf.String(), `"detail":"r0 r2"`) {
		t.Error("plan_assign rack-set format drifted")
	}
}

func TestJSONStringEscaping(t *testing.T) {
	got := string(appendJSONString(nil, "a\"b\\c\nd\x01é"))
	want := "\"a\\\"b\\\\c\\u000ad\\u0001é\""
	if got != want {
		t.Fatalf("got %s want %s", got, want)
	}
	var back string
	if err := json.Unmarshal([]byte(got), &back); err != nil {
		t.Fatalf("escaped string not valid JSON: %v", err)
	}
	if back != "a\"b\\c\nd\x01é" {
		t.Fatalf("round-trip mismatch: %q", back)
	}
}

func TestChromeValid(t *testing.T) {
	c := NewCollector()
	emitAll(c.NewRun("run-a"))
	var buf bytes.Buffer
	if err := c.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	phs := map[string]int{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M", "X", "C", "i":
			phs[ph]++
		default:
			t.Fatalf("unexpected ph %q in %v", ph, ev)
		}
		if ph == "X" {
			spans++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("X event without dur: %v", ev)
			}
		}
	}
	// emitAll starts one map task (finished), one map crash-with-no-start
	// pair is absent, and the reduce abort has no matching start → exactly
	// one task span.
	if spans != 1 {
		t.Fatalf("got %d X spans, want 1", spans)
	}
	for _, ph := range []string{"M", "C", "i"} {
		if phs[ph] == 0 {
			t.Fatalf("no %q events in Chrome export", ph)
		}
	}
}

func TestChromeShuffleSpanNested(t *testing.T) {
	c := NewCollector()
	tr := c.NewRun("r")
	tr.TaskStart(1, RoleReduce, 0, 1, 2, 1, 5)
	tr.ShuffleDone(3, 0, 1, 2, 5)
	tr.TaskFinish(4, RoleReduce, 0, 1, 2, 1, 5, 3)
	var buf bytes.Buffer
	if err := c.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"name":"reduce j0 s1 t2"`) {
		t.Error("reduce span missing")
	}
	if !strings.Contains(s, `"name":"shuffle"`) {
		t.Error("nested shuffle span missing")
	}
}

func TestCollectorOrderInvariance(t *testing.T) {
	build := func(order []int) *Collector {
		c := NewCollector()
		for _, i := range order {
			tr := c.NewRun([]string{"run-a", "run-b"}[i])
			if i == 0 {
				tr.TaskStart(1, RoleMap, 0, 0, 0, 1, 0)
				tr.TaskFinish(2, RoleMap, 0, 0, 0, 1, 0, 1)
			} else {
				tr.SlotsBusy(1, 3)
			}
		}
		return c
	}
	c1, c2 := build([]int{0, 1}), build([]int{1, 0})
	var j1, j2, g1, g2 bytes.Buffer
	if err := c1.WriteJSONL(&j1); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteJSONL(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("JSONL export depends on registration order")
	}
	if err := c1.WriteChrome(&g1); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteChrome(&g2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g1.Bytes(), g2.Bytes()) {
		t.Error("Chrome export depends on registration order")
	}
	if c1.Runs() != 2 || c1.Events() != 3 {
		t.Errorf("collector counts wrong: runs=%d events=%d", c1.Runs(), c1.Events())
	}
}

func TestGlobalInstall(t *testing.T) {
	if Active() != nil {
		t.Fatal("collector installed at test start")
	}
	if tr := NewRun("x"); tr != nil {
		t.Fatal("NewRun without collector must return nil tracer")
	}
	c := NewCollector()
	Install(c)
	defer Install(nil)
	if Active() != c {
		t.Fatal("Active() lost the installed collector")
	}
	tr := NewRun("y")
	if !tr.Enabled() {
		t.Fatal("NewRun with installed collector returned nil")
	}
	if c.Runs() != 1 {
		t.Fatal("run not registered")
	}
}
