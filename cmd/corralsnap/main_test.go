package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"corral/internal/snapshot"
)

// TestMain lets a test run the command itself: with CORRALSNAP_RUN_MAIN
// set, the test binary runs main in place of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("CORRALSNAP_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var golden = filepath.Join("..", "..", "internal", "snapshot", "testdata", "golden_v1.snap.json")

// run executes corralsnap with args and returns its stdout, stderr and
// exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CORRALSNAP_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

func TestInspectGolden(t *testing.T) {
	stdout, stderr, code := run(t, "inspect", golden)
	if code != 0 {
		t.Fatalf("exit status %d; stderr:\n%s", code, stderr)
	}
	want := `version:    1
captured:   event 23, t=22.000 s
label:      sim/yarn-cs/seed1
scheduler:  yarn-cs (seed 1)
network:    default (maxmin-incremental)
cluster:    2 racks x 2 machines x 2 slots
jobs:       1 (planned assignments: 0)
faults:     1 machine, 0 link, 0 AM, 0 corruption; task crash p=0.000
state:      1 pending events, 40 rng draws
jobs state: 1 submitted, 1 finished, 0 in-flight attempts, 0 replans
network:    0 flows (11 served), 5.76e+08 bytes total
dfs:        1 files, 3 repairs recorded
`
	if stdout != want {
		t.Fatalf("inspect output:\n%s\nwant:\n%s", stdout, want)
	}
}

func TestDiffIdenticalExitsZero(t *testing.T) {
	stdout, stderr, code := run(t, "diff", golden, golden)
	if code != 0 || stdout != "snapshots are identical\n" {
		t.Fatalf("exit status %d, stdout %q; stderr:\n%s", code, stdout, stderr)
	}
}

// TestDiffDifferentExitsOne changes two fields of the golden snapshot and
// expects both paths on stdout with exit status 1.
func TestDiffDifferentExitsOne(t *testing.T) {
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	s.Meta.EventIndex++
	s.State.RNGDraws++
	changed, err := snapshot.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), "changed.snap.json")
	if err := os.WriteFile(other, changed, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := run(t, "diff", golden, other)
	if code != 1 {
		t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr)
	}
	for _, path := range []string{"Meta.EventIndex", "State.RNGDraws"} {
		if !strings.Contains(stdout, path) {
			t.Errorf("diff output does not name %s:\n%s", path, stdout)
		}
	}
}

// TestErrorsExitTwo: wrong arguments and unreadable or corrupt files are
// exit status 2 with a message on stderr.
func TestErrorsExitTwo(t *testing.T) {
	corrupt := filepath.Join(t.TempDir(), "corrupt.snap.json")
	if err := os.WriteFile(corrupt, []byte(`{"version":1,"meta":`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		nil,
		{"inspect"},
		{"diff", golden},
		{"merge", golden, golden},
		{"inspect", corrupt},
		{"diff", golden, corrupt},
		{"inspect", filepath.Join(t.TempDir(), "missing.snap.json")},
	} {
		stdout, stderr, code := run(t, args...)
		if code != 2 || stderr == "" || stdout != "" {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q; want exit 2 with a message on stderr", args, code, stdout, stderr)
		}
	}
}
