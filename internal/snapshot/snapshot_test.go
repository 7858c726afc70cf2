package snapshot_test

// Codec and schema-stability tests. These live in an external test
// package so they can generate real snapshots through the runtime —
// the snapshot package itself stays import-light.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"corral/internal/invariants"
	"corral/internal/job"
	"corral/internal/runtime"
	"corral/internal/snapshot"
	"corral/internal/topology"
)

// goldenSnapshot captures a pinned run at a pinned point. Any change to
// its encoded bytes is a schema or determinism change and must be a
// deliberate one.
func goldenSnapshot(t *testing.T) *snapshot.Snapshot {
	t.Helper()
	opts, jobs := goldenRun()
	snap, err := runtime.CaptureAt(opts, jobs, runtime.CheckpointTarget{SimTime: 4})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// goldenRun is the pinned run goldenSnapshot captures, built fresh on
// every call.
func goldenRun() (runtime.Options, []*job.Job) {
	const gbps = 1e9 / 8
	opts := runtime.Options{
		Cluster: topology.Config{
			Racks:            2,
			MachinesPerRack:  2,
			SlotsPerMachine:  2,
			NICBandwidth:     10 * gbps,
			Oversubscription: 5,
		},
		BlockSize: 64e6,
		Seed:      1,
		Failures:  []runtime.Failure{{At: 2, Machine: 1, Downtime: 20}},
	}
	j := job.MapReduce(1, "golden", job.Profile{
		InputBytes:   256e6,
		ShuffleBytes: 512e6,
		OutputBytes:  64e6,
		MapTasks:     4,
		ReduceTasks:  2,
		MapRate:      2e8,
		ReduceRate:   2e8,
	})
	return opts, []*job.Job{j}
}

// TestLegacyPolicyNamesResume pins the flow-policy names snapshots have
// recorded: the default "" and every max-min allocator name ever written
// must decode and resume to the uninterrupted default run's Result, and a
// Spec that sets the removed FlowEpoch knob or moves any of the eleven
// fixed parameters must be rejected with an error naming the field rather
// than resume under different semantics.
func TestLegacyPolicyNamesResume(t *testing.T) {
	want, err := runtime.Run(goldenRun())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		policy  string
		tamper  func(*snapshot.Spec)
		wantErr string
	}{
		{policy: ""},
		{policy: "maxmin"},
		{policy: "maxmin-grouped"},
		{policy: "maxmin-incremental"},
		{tamper: func(s *snapshot.Spec) { s.FlowEpoch = 0.25 }, wantErr: "FlowEpoch"},
		{tamper: func(s *snapshot.Spec) { s.OutputReplication = 2 }, wantErr: "OutputReplication"},
		{tamper: func(s *snapshot.Spec) { s.InMemoryInput = true }, wantErr: "OutputReplication"},
		{tamper: func(s *snapshot.Spec) { s.Heartbeat = 2 }, wantErr: "Heartbeat"},
		{tamper: func(s *snapshot.Spec) { s.AdhocShare = 0.25 }, wantErr: "AdhocShare"},
		{tamper: func(s *snapshot.Spec) { s.DisableReReplication = true }, wantErr: "DisableReReplication"},
		{tamper: func(s *snapshot.Spec) { s.MaxTaskAttempts = 8 }, wantErr: "MaxTaskAttempts"},
		{tamper: func(s *snapshot.Spec) { s.RetryBackoff = 0.5 }, wantErr: "RetryBackoff"},
		{tamper: func(s *snapshot.Spec) { s.BlacklistThreshold = -1 }, wantErr: "BlacklistThreshold"},
		{tamper: func(s *snapshot.Spec) { s.BlacklistCooldown = 10 }, wantErr: "BlacklistCooldown"},
		{tamper: func(s *snapshot.Spec) { s.MaxAMAttempts = 3 }, wantErr: "MaxAMAttempts"},
		{tamper: func(s *snapshot.Spec) { s.AMRestartDelay = 0.3 }, wantErr: "AMRestartDelay"},
		{tamper: func(s *snapshot.Spec) { s.MaxReplansPerWindow = 1 }, wantErr: "MaxReplansPerWindow"},
		{tamper: func(s *snapshot.Spec) { s.ReplanWindow = 5 }, wantErr: "MaxReplansPerWindow"},
	} {
		snap := goldenSnapshot(t)
		snap.Spec.Policy = tc.policy
		if tc.tamper != nil {
			tc.tamper(&snap.Spec)
		}
		raw, err := snapshot.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := snapshot.Decode(raw)
		if err != nil {
			t.Fatalf("policy %q: decode: %v", tc.policy, err)
		}
		got, err := runtime.Resume(dec, runtime.ResumeOptions{})
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want an error naming %s", err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("policy %q: resume: %v", tc.policy, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %q: resumed Result differs from the default run's:\n got:  %+v\n want: %+v", tc.policy, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := goldenSnapshot(t)
	raw, err := snapshot.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		for _, d := range snapshot.Diff(got, snap) {
			t.Error(d)
		}
		t.Fatal("decode(encode(snap)) != snap")
	}
	// Re-encoding must be canonical: equal snapshots, equal bytes.
	raw2, err := snapshot.Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("encoding is not canonical: re-encoding a decoded snapshot changed bytes")
	}
}

// TestGoldenFile pins the version-1 wire format: the committed golden file
// must decode, and regenerating it from the pinned run must reproduce it
// byte for byte. Refresh with UPDATE_SNAPSHOT_GOLDEN=1 after a deliberate
// schema change (and bump snapshot.Version if the change is breaking).
func TestGoldenFile(t *testing.T) {
	golden := filepath.Join("testdata", "golden_v1.snap.json")
	raw, err := snapshot.Encode(goldenSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_SNAPSHOT_GOLDEN") != "" {
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(raw))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_SNAPSHOT_GOLDEN=1 go test ./internal/snapshot/ -run TestGoldenFile)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("snapshot encoding drifted from committed golden file (%d vs %d bytes); "+
			"if the schema change is deliberate, bump snapshot.Version and regenerate with UPDATE_SNAPSHOT_GOLDEN=1",
			len(raw), len(want))
	}
	if _, err := snapshot.Decode(want); err != nil {
		t.Fatalf("committed golden file does not decode: %v", err)
	}
}

// TestPreOverloadSnapshotRestores pins backward compatibility of the PR 8
// additive schema change: testdata/pre_overload_v1.snap.json is a byte
// copy of the golden file as written *before* the overload-hardening
// fields (PlannerBudget, admission queue, suppression state) existed. It
// must still decode — the strict decoder treats missing fields as zero
// values, which are exactly the feature-off defaults — and must still
// resume to a clean, completed run whose replayed state audits against
// the captured (all-zero overload state) section.
func TestPreOverloadSnapshotRestores(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "pre_overload_v1.snap.json"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(raw)
	if err != nil {
		t.Fatalf("pre-PR-8 snapshot no longer decodes: %v", err)
	}
	if snap.Spec.PlannerBudget != 0 || snap.Spec.AdmissionLimit != 0 || snap.Spec.ReplanWindow != 0 {
		t.Fatalf("pre-PR-8 spec decoded non-zero overload fields: %+v", snap.Spec)
	}
	if snap.Spec.FlowEpoch != 0 {
		t.Fatalf("pre-PR-9 spec decoded non-zero FlowEpoch: %+v", snap.Spec)
	}
	topo := snap.Spec.Topology
	mon := invariants.NewMonitor(topo.Machines(), topo.SlotsPerMachine)
	res, err := runtime.Resume(snap, runtime.ResumeOptions{Probe: mon})
	if err != nil {
		t.Fatalf("pre-PR-8 snapshot no longer resumes: %v", err)
	}
	if n := mon.ViolationCount(); n != 0 {
		t.Fatalf("resumed pre-PR-8 run raised %d violations: %v", n, mon.Violations())
	}
	if len(res.Jobs) != 1 || res.Jobs[0].Failed {
		t.Fatalf("resumed pre-PR-8 run did not complete its job: %+v", res.Jobs)
	}
	if res.Deferred != 0 || res.Shed != 0 || res.ReplansSuppressed != 0 || res.Degradations != (runtime.Degradations{}) {
		t.Fatalf("resumed pre-PR-8 run reported overload activity: %+v", res)
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	raw, err := snapshot.Encode(goldenSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	bumped := bytes.Replace(raw, []byte(`{"version":1,`), []byte(`{"version":99,`), 1)
	if bytes.Equal(bumped, raw) {
		t.Fatal("version field not found in encoded form")
	}
	_, err = snapshot.Decode(bumped)
	if err == nil || !strings.Contains(err.Error(), "version 99 not supported") {
		t.Fatalf("err = %v, want unsupported-version error", err)
	}
	if _, err := snapshot.Decode([]byte(`{"meta":{}}`)); err == nil || !strings.Contains(err.Error(), "missing version") {
		t.Fatalf("err = %v, want missing-version error", err)
	}
	if _, err := snapshot.Decode([]byte(`not json`)); err == nil || !strings.Contains(err.Error(), "not a snapshot file") {
		t.Fatalf("err = %v, want not-a-snapshot error", err)
	}
}

// TestDecodeRejectsCorruptedSection: a single flipped byte in any section
// fails that section's checksum with a clear error — never a partial
// restore.
func TestDecodeRejectsCorruptedSection(t *testing.T) {
	raw, err := snapshot.Encode(goldenSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"meta", "spec", "state"} {
		sec := env[section]
		// Flip one digit somewhere inside the section's raw bytes.
		i := bytes.IndexAny(sec, "0123456789")
		if i < 0 {
			t.Fatalf("%s section has no digit to flip", section)
		}
		corrupted := bytes.Replace(raw, sec, append(append([]byte(nil), sec[:i]...), append([]byte{flip(sec[i])}, sec[i+1:]...)...), 1)
		_, err := snapshot.Decode(corrupted)
		if err == nil || !strings.Contains(err.Error(), section+" section corrupted") {
			t.Fatalf("%s: err = %v, want checksum-mismatch error", section, err)
		}
	}
}

func flip(d byte) byte {
	if d == '9' {
		return '8'
	}
	return d + 1
}

// TestDecodeRejectsSchemaDrift: an unknown field in a section (a snapshot
// from a same-version build with extra fields) fails the strict decode
// even when its checksum is valid.
func TestDecodeRejectsSchemaDrift(t *testing.T) {
	raw, err := snapshot.Encode(goldenSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	// Inject an unknown field into meta and recompute its checksum so the
	// corruption check passes and the strict decode is what must catch it.
	meta := env["meta"]
	drifted := append([]byte(`{"Bogus":1,`), meta[1:]...)
	env["meta"] = drifted
	var sums map[string]string
	if err := json.Unmarshal(env["sums"], &sums); err != nil {
		t.Fatal(err)
	}
	sums["meta"] = snapshot.Checksum(drifted)
	sraw, err := json.Marshal(sums)
	if err != nil {
		t.Fatal(err)
	}
	env["sums"] = sraw
	reassembled, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	_, err = snapshot.Decode(reassembled)
	if err == nil || !strings.Contains(err.Error(), "malformed meta section") {
		t.Fatalf("err = %v, want malformed-meta error", err)
	}
}
