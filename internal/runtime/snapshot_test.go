package runtime

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"corral/internal/job"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/snapshot"
	"corral/internal/trace"
)

// snapOpts is a fault-heavy configuration: machine failure with repair
// traffic, a degraded rack link, stragglers, task crashes and speculation
// all active, so a snapshot has to carry every state category at once.
func snapOpts(seed int64) Options {
	return Options{
		Cluster:           smallTopo(),
		BlockSize:         64e6,
		Seed:              seed,
		TaskFailureProb:   0.1,
		StragglerFraction: 0.1,
		StragglerSlowdown: 2,
		Speculation:       true,
		Failures:          []Failure{{At: 5, Machine: 3, Downtime: 40}},
		LinkFaults:        []LinkFault{{At: 8, Rack: 1, Factor: 0.25}},
	}
}

func snapJobs() []*job.Job {
	j1, j2 := shuffleJob(1), shuffleJob(2)
	j2.Arrival = 6
	return []*job.Job{j1, j2}
}

// tracedRun runs to completion with a tracer attached and returns the
// result plus the trace's JSONL bytes.
func tracedRun(t *testing.T, opts Options, jobs []*job.Job) (*Result, []byte) {
	t.Helper()
	c := trace.NewCollector()
	opts.Trace = c.NewRun("snap-eq")
	res, err := Run(opts, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestSnapshotResumeEquivalence is the core crash-resume contract: capture
// mid-flight, tear the run down, restore from the snapshot, and the
// resumed run's Result and full trace must be bit-identical to an
// uninterrupted run under the same seed.
func TestSnapshotResumeEquivalence(t *testing.T) {
	for _, seed := range []int64{7, 99} {
		opts := snapOpts(seed)
		base, baseTrace := tracedRun(t, opts, snapJobs())
		if base.Events < 100 {
			t.Fatalf("seed %d: only %d events; run too small to snapshot meaningfully", seed, base.Events)
		}
		for _, frac := range []float64{0.25, 0.5, 0.8} {
			idx := uint64(float64(base.Events) * frac)
			snap, err := CaptureAt(snapOpts(seed), snapJobs(), CheckpointTarget{EventIndex: idx})
			if err != nil {
				t.Fatalf("seed %d idx %d: capture: %v", seed, idx, err)
			}
			if snap.Meta.EventIndex != idx {
				t.Fatalf("seed %d: Meta.EventIndex = %d, want %d", seed, snap.Meta.EventIndex, idx)
			}
			// Round-trip through the codec so the equivalence claim covers
			// the serialized form, not just the in-memory struct.
			raw, err := snapshot.Encode(snap)
			if err != nil {
				t.Fatalf("seed %d idx %d: encode: %v", seed, idx, err)
			}
			decoded, err := snapshot.Decode(raw)
			if err != nil {
				t.Fatalf("seed %d idx %d: decode: %v", seed, idx, err)
			}
			c := trace.NewCollector()
			mon := newCountingProbe(opts.Cluster.Machines(), opts.Cluster.SlotsPerMachine)
			res, err := Resume(decoded, ResumeOptions{Trace: c.NewRun("snap-eq"), Probe: mon})
			if err != nil {
				t.Fatalf("seed %d idx %d: resume: %v", seed, idx, err)
			}
			if n := len(mon.mon.Violations()); n != 0 {
				t.Fatalf("seed %d idx %d: resumed run raised %d invariant violations: %v",
					seed, idx, n, mon.mon.Violations())
			}
			if !reflect.DeepEqual(res, base) {
				t.Fatalf("seed %d idx %d: resumed Result differs from uninterrupted run:\nresumed: %+v\nbase:    %+v",
					seed, idx, res, base)
			}
			var buf bytes.Buffer
			if err := c.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), baseTrace) {
				t.Fatalf("seed %d idx %d: resumed trace differs from uninterrupted run (%d vs %d bytes)",
					seed, idx, buf.Len(), len(baseTrace))
			}
		}
	}
}

// TestSnapshotSimTimeTarget: a SimTime target captures at the first event
// boundary reaching that time, and Meta records the event-exact position.
func TestSnapshotSimTimeTarget(t *testing.T) {
	snap, err := CaptureAt(snapOpts(7), snapJobs(), CheckpointTarget{SimTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.SimTime < 10 {
		t.Fatalf("captured at t=%g, want >= 10", snap.Meta.SimTime)
	}
	if snap.Meta.EventIndex == 0 {
		t.Fatal("Meta.EventIndex not recorded for SimTime target")
	}
	if _, err := Resume(snap, ResumeOptions{}); err != nil {
		t.Fatalf("resume from SimTime capture: %v", err)
	}
}

// TestSnapshotTargetPastEnd: a target the run never reaches is an error,
// not a silent no-op.
func TestSnapshotTargetPastEnd(t *testing.T) {
	base, err := Run(snapOpts(7), snapJobs())
	if err != nil {
		t.Fatal(err)
	}
	_, err = CaptureAt(snapOpts(7), snapJobs(), CheckpointTarget{EventIndex: base.Events + 1000})
	if err == nil || !strings.Contains(err.Error(), "not reached") {
		t.Fatalf("capture past sim end: err = %v, want 'not reached'", err)
	}
	_, err = CaptureAt(snapOpts(7), snapJobs(), CheckpointTarget{SimTime: 1e12})
	if err == nil || !strings.Contains(err.Error(), "not reached") {
		t.Fatalf("SimTime capture past sim end: err = %v, want 'not reached'", err)
	}
}

// renamedPolicy is a custom network policy instance: the default
// allocator under a name no snapshot can resolve.
type renamedPolicy struct{ netsim.Policy }

func (renamedPolicy) Name() string { return "custom" }

// TestSnapshotRejectsUnserializableHooks: a run holding a custom network
// policy instance cannot be snapshotted — the error arrives before the
// simulation starts.
func TestSnapshotRejectsUnserializableHooks(t *testing.T) {
	opts := snapOpts(7)
	opts.Network = renamedPolicy{netsim.NewIncrementalMaxMin()}
	_, err := CaptureAt(opts, snapJobs(), CheckpointTarget{EventIndex: 50})
	if err == nil || !strings.Contains(err.Error(), "custom network policy") {
		t.Fatalf("err = %v, want custom-policy rejection", err)
	}
}

// leafPaths walks a State and returns the reflection path of every leaf
// field (bool/number/string), as a sequence of field-name / index steps.
func leafPaths(v reflect.Value, prefix []string, out *[][]string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			leafPaths(v.Elem(), prefix, out)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			leafPaths(v.Field(i), append(append([]string(nil), prefix...), t.Field(i).Name), out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			leafPaths(v.Index(i), append(append([]string(nil), prefix...), "#"+itoa(i)), out)
		}
	default:
		*out = append(*out, append([]string(nil), prefix...))
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// navigate resolves a leaf path against a State and returns the
// addressable leaf value.
func navigate(v reflect.Value, path []string) reflect.Value {
	for _, step := range path {
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if step[0] == '#' {
			i := 0
			for _, c := range step[1:] {
				i = i*10 + int(c-'0')
			}
			v = v.Index(i)
		} else {
			v = v.FieldByName(step)
		}
	}
	for v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	return v
}

// corrupt flips a single leaf value to something different but
// schema-valid.
func corrupt(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic("corrupt: unhandled kind " + v.Kind().String())
	}
}

// TestSnapshotRestoreAuditCatchesCorruption is the anti-vacuity proof for
// the restore audit: corrupting any single State field — after decode, so
// section checksums cannot save us — must fail Resume and raise an
// invariant-monitor violation. Every leaf field of the captured State is
// enumerated; a deterministic spread of them (always covering all five
// state sections) is corrupted one at a time.
func TestSnapshotRestoreAuditCatchesCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption sweep is slow in -short mode")
	}
	snap, err := CaptureAt(snapOpts(7), snapJobs(), CheckpointTarget{SimTime: 12})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	var paths [][]string
	leafPaths(reflect.ValueOf(&snap.State), nil, &paths)
	if len(paths) < 100 {
		t.Fatalf("only %d leaf fields captured; state export looks hollow", len(paths))
	}
	sections := map[string]bool{}
	for _, p := range paths {
		sections[p[0]] = true
	}
	for _, want := range []string{"DES", "RNGDraws", "Runtime", "Net", "DFS"} {
		if !sections[want] {
			t.Fatalf("no leaf fields under State.%s; corruption sweep would not cover it", want)
		}
	}
	// Spread ~60 cases evenly over all leaves so every section and most
	// field kinds get hit without running thousands of replays.
	stride := len(paths) / 60
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < len(paths); i += stride {
		path := paths[i]
		name := strings.Join(path, ".")
		mutant, err := snapshot.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		leaf := navigate(reflect.ValueOf(&mutant.State), path)
		before := leaf.Interface()
		corrupt(leaf)
		mon := newCountingProbe(snap.Spec.Topology.Machines(), snap.Spec.Topology.SlotsPerMachine)
		_, err = Resume(mutant, ResumeOptions{Probe: mon})
		if err == nil {
			t.Errorf("State.%s: corrupted %v -> %v yet Resume succeeded (restore audit is vacuous)",
				name, before, leaf.Interface())
			continue
		}
		if !strings.Contains(err.Error(), "restore audit") {
			t.Errorf("State.%s: err = %v, want restore-audit error", name, err)
		}
		if len(mon.mon.Violations()) == 0 {
			t.Errorf("State.%s: restore audit failed without an invariant-monitor violation", name)
		}
	}
}

// TestSpecRoundTripsEveryOption: every settable option survives
// buildSpec → Encode → Decode → optionsFromSpec unchanged. The fixture
// must set every Options field but the observers and the policy instance
// to a non-zero value, so an option added without a Spec mapping fails
// here instead of silently resetting on resume.
func TestSpecRoundTripsEveryOption(t *testing.T) {
	topo := smallTopo()
	topo.RemoteStorageBandwidth = 10 * gbps
	jobs := snapJobs()
	opts := Options{
		Cluster:              topo,
		Scheduler:            Corral,
		Plan:                 planFor(t, topo, jobs, planner.MinimizeAvgCompletion),
		Seed:                 3,
		BlockSize:            64e6,
		DelayNodeLocal:       5,
		DelayRackLocal:       9,
		Failures:             []Failure{{At: 5, Machine: 3, Downtime: 40}},
		LinkFaults:           []LinkFault{{At: 8, Rack: 1, Factor: 0.25}},
		ReplanOnFailure:      true,
		StragglerFraction:    0.1,
		StragglerSlowdown:    2,
		Speculation:          true,
		SpeculationThreshold: 1.5,
		FailedMachines:       []int{7},
		RemoteStorageInput:   true,
		InMemoryInput:        true,
		TaskFailureProb:      0.1,
		AMFailures:           []AMFailure{{At: 7, JobID: 2}},
		Corruptions:          []Corruption{{At: 3, Machine: 5}},
		PlannerBudget:        0.5,
		ReplanWindow:         2,
		AdmissionLimit:       1,
		AdmissionQueueCap:    3,
	}
	v := reflect.ValueOf(opts)
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "Probe", "Trace", "Network":
		default:
			if v.Field(i).IsZero() {
				t.Errorf("fixture leaves Options.%s zero; set it so the round trip covers it", name)
			}
		}
	}
	rt, err := newRuntime(opts, jobs)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := rt.buildSpec()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := snapshot.Encode(&snapshot.Snapshot{Version: snapshot.Version, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := optionsFromSpec(&dec.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, opts) {
		t.Fatalf("options changed across the snapshot round trip:\n got:  %+v\n want: %+v", got, opts)
	}
}
