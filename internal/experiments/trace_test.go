package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"corral/internal/pool"
	"corral/internal/trace"
)

// traceExport runs the size-S batch suite with a process-wide collector
// installed and returns the two trace exports. The collector is always
// uninstalled again so other tests in the package run untraced.
func traceExport(t *testing.T, seed int64, workers int) (jsonl, chrome []byte) {
	t.Helper()
	pool.SetWorkers(workers)
	defer pool.SetWorkers(0)
	c := trace.NewCollector()
	trace.Install(c)
	defer trace.Install(nil)
	if _, err := batchSuite(Params{Size: SizeS, Seed: seed}, batchWorkloads(SizeS)); err != nil {
		t.Fatal(err)
	}
	var j, g bytes.Buffer
	if err := c.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteChrome(&g); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), g.Bytes()
}

// TestTraceReplayBitIdentical is the trace analogue of
// TestBatchDeterminism: replaying the suite under the same seed must
// reproduce both exports byte for byte — event content, ordering and
// float formatting included. Two seeds guard against a constant-seed
// fallback passing vacuously.
func TestTraceReplayBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		j1, g1 := traceExport(t, seed, 0)
		j2, g2 := traceExport(t, seed, 0)
		if !bytes.Equal(j1, j2) {
			t.Errorf("seed %d: JSONL export not reproducible across replays", seed)
		}
		if !bytes.Equal(g1, g2) {
			t.Errorf("seed %d: Chrome export not reproducible across replays", seed)
		}
		if len(j1) == 0 || len(g1) == 0 {
			t.Fatalf("seed %d: empty trace export; nothing was traced", seed)
		}
	}
}

// TestTraceWorkerInvariance pins the collector's ordering contract: the
// sweep worker count changes only which goroutine registers a run first,
// and the sorted export must hide that completely.
func TestTraceWorkerInvariance(t *testing.T) {
	j1, g1 := traceExport(t, 1, 1)
	j8, g8 := traceExport(t, 1, 8)
	if !bytes.Equal(j1, j8) {
		t.Error("JSONL export differs between -workers 1 and -workers 8")
	}
	if !bytes.Equal(g1, g8) {
		t.Error("Chrome export differs between -workers 1 and -workers 8")
	}
}

// TestTraceSeedsDiffer guards against vacuous passes above: different
// seeds must produce different traces, or the trace is not actually
// observing the simulation.
func TestTraceSeedsDiffer(t *testing.T) {
	j1, _ := traceExport(t, 1, 0)
	j42, _ := traceExport(t, 42, 0)
	if bytes.Equal(j1, j42) {
		t.Error("seeds 1 and 42 produced identical traces; the trace is not observing the runs")
	}
}

// TestTracingDoesNotPerturbResults: attaching the tracer must be pure
// observation — the full Result structs with tracing enabled must equal
// the untraced ones bit for bit.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	p := Params{Size: SizeS, Seed: 7}
	plain, err := batchSuite(p, []string{"W1"})
	if err != nil {
		t.Fatal(err)
	}
	trace.Install(trace.NewCollector())
	defer trace.Install(nil)
	traced, err := batchSuite(p, []string{"W1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range allSchedulers {
		if !reflect.DeepEqual(plain["W1"][k], traced["W1"][k]) {
			t.Errorf("tracing perturbed the %v result:\n plain:  %+v\n traced: %+v",
				k, summarize(plain["W1"][k]), summarize(traced["W1"][k]))
		}
	}
}
