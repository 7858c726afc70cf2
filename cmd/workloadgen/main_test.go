package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with WORKLOADGEN_RUN_MAIN
// set, the test binary runs main in place of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("WORKLOADGEN_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes workloadgen with args and returns its stdout, stderr and
// exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WORKLOADGEN_RUN_MAIN=1")
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

// TestBadFlagsExitWithError: a value the generators would crash on,
// silently replace with a default or turn into an unusable output (an
// infinite size, horizon or intensity) is reported as one line on stderr with
// exit status 1, and nothing is emitted.
func TestBadFlagsExitWithError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-jobs", "-3"}, "-jobs"},
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-scale", "-1"}, "-scale"},
		{[]string{"-scale", "NaN"}, "-scale"},
		{[]string{"-window", "-5"}, "-window"},
		{[]string{"-workload", "tpch", "-tpch-db-gb", "-1"}, "-tpch-db-gb"},
		{[]string{"-fault-trace", "-racks", "-2"}, "-racks"},
		{[]string{"-fault-trace", "-machines-per-rack", "-1"}, "-machines-per-rack"},
		{[]string{"-fault-trace", "-intensity", "-1"}, "-intensity"},
		{[]string{"-fault-trace", "-horizon", "-10"}, "-horizon"},
		{[]string{"-scale", "+Inf"}, "-scale"},
		{[]string{"-window", "+Inf"}, "-window"},
		{[]string{"-workload", "tpch", "-tpch-db-gb", "+Inf"}, "-tpch-db-gb"},
		{[]string{"-fault-trace", "-intensity", "+Inf"}, "-intensity"},
		{[]string{"-fault-trace", "-horizon", "+Inf"}, "-horizon"},
		{[]string{"-workload", "w9"}, "unknown workload"},
	} {
		stdout, stderr, code := run(t, tc.args...)
		if code != 1 {
			t.Errorf("%v: exit status %d, want 1; stderr:\n%s", tc.args, code, stderr)
		}
		if !strings.HasPrefix(stderr, "workloadgen: "+tc.flag) || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr %q, want one line starting %q", tc.args, stderr, "workloadgen: "+tc.flag)
		}
		if stdout != "" {
			t.Errorf("%v: emitted %d bytes on stdout", tc.args, len(stdout))
		}
	}
}

// TestValidFlagsEmit: the boundary values the checks accept still emit.
func TestValidFlagsEmit(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "3", "-scale", "0.1"},
		{"-workload", "tpch", "-jobs", "2", "-tpch-db-gb", "10"},
		{"-fault-trace", "-intensity", "0", "-racks", "2", "-machines-per-rack", "2"},
	} {
		stdout, stderr, code := run(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit status %d; stderr:\n%s", args, code, stderr)
		}
		if !json.Valid([]byte(stdout)) {
			t.Fatalf("%v: stdout is not JSON:\n%s", args, stdout)
		}
	}
}
