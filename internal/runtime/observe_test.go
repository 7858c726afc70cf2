package runtime

import (
	"bytes"
	"strings"
	"testing"

	"corral/internal/invariants"
	"corral/internal/job"
	"corral/internal/trace"
)

// exports runs opts with a collector tracer attached and returns the
// run's JSONL and Chrome exports.
func exports(t *testing.T, opts Options, jobs []*job.Job) (jsonl, chrome []byte) {
	t.Helper()
	c := trace.NewCollector()
	opts.Trace = c.NewRun("observe")
	mustRun(t, opts, jobs)
	var j, ch bytes.Buffer
	if err := c.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteChrome(&ch); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), ch.Bytes()
}

// Attaching the invariant monitor must not perturb the trace: the probe
// observes the tracer's stream, it does not add to it.
func TestProbeLeavesTraceExportsIdentical(t *testing.T) {
	opts := snapOpts(7)
	opts.AMFailures = []AMFailure{{At: 7, JobID: 2}}
	opts.Corruptions = []Corruption{{At: 3, Machine: 5}}
	plainJSONL, plainChrome := exports(t, opts, snapJobs())
	for _, ev := range []string{"task_crash", "machine_down", "am_fail", "dfs_corrupt", "sim_end"} {
		if !bytes.Contains(plainJSONL, []byte(`"ev":"`+ev+`"`)) {
			t.Fatalf("run traced no %s event (vacuous test)", ev)
		}
	}

	topo := smallTopo()
	mon := invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
	opts.Probe = mon
	probedJSONL, probedChrome := exports(t, opts, snapJobs())
	if !mon.Ended() || mon.ViolationCount() != 0 {
		t.Fatalf("monitor ended=%v with %d violations: %v", mon.Ended(), mon.ViolationCount(), mon.Violations())
	}
	if !bytes.Equal(plainJSONL, probedJSONL) {
		t.Errorf("JSONL export changed when a probe was attached (%d vs %d bytes)", len(plainJSONL), len(probedJSONL))
	}
	if !bytes.Equal(plainChrome, probedChrome) {
		t.Errorf("Chrome export changed when a probe was attached (%d vs %d bytes)", len(plainChrome), len(probedChrome))
	}
}

// A failed audit is an event like any other: it lands in the JSONL
// export, not only in an attached monitor.
func TestFailedAuditIsTraced(t *testing.T) {
	snap, err := CaptureAt(snapOpts(7), snapJobs(), CheckpointTarget{EventIndex: 50})
	if err != nil {
		t.Fatal(err)
	}
	snap.Meta.EventIndex = 1 << 40 // past the end: the replay drains first
	c := trace.NewCollector()
	if _, err := Resume(snap, ResumeOptions{Trace: c.NewRun("audit")}); err == nil {
		t.Fatal("resume past the end of the run succeeded")
	}
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var audit string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"ev":"audit"`) {
			audit = line
		}
	}
	if !strings.Contains(audit, "snapshot restore audit: event queue drained") {
		t.Fatalf("no audit event carrying the restore failure in the JSONL export; last audit line %q", audit)
	}
}

// A run that wedges returns the deadlock error from finish, and the
// monitor must still run its end-of-run checks on that path.
func TestMonitorEndChecksOnDeadlock(t *testing.T) {
	topo := smallTopo()
	mon := invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
	opts := Options{Cluster: topo, BlockSize: 64e6, Seed: 3, Probe: mon}
	for r := 0; r < topo.Racks; r++ {
		opts.LinkFaults = append(opts.LinkFaults, LinkFault{At: 1, Rack: r, Factor: 0})
	}
	_, err := Run(opts, []*job.Job{shuffleJob(1)})
	if err == nil || !strings.Contains(err.Error(), "never completed") {
		t.Fatalf("err = %v, want the deadlock error", err)
	}
	if !mon.Ended() {
		t.Fatal("monitor never saw the end of the deadlocked run")
	}
	found := false
	for _, v := range mon.Violations() {
		found = found || strings.Contains(v, "job 1: submitted but never reached a terminal state")
	}
	if !found {
		t.Fatalf("end-of-run violations missing the stuck job: %v", mon.Violations())
	}
}
