package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with CORRALPLAN_RUN_MAIN
// set, the test binary runs main in place of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("CORRALPLAN_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNilJobExitsWithError: a workload holding a JSON null is reported
// on stderr with exit status 1, not a crash.
func TestNilJobExitsWithError(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CORRALPLAN_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader("[null]")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("corralplan on [null]: %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	if got, want := stderr.String(), "corralplan: job: nil job\n"; got != want {
		t.Fatalf("stderr %q, want %q", got, want)
	}
}
