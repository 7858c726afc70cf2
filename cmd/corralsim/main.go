// Command corralsim regenerates the paper's tables and figures.
//
// Usage:
//
//	corralsim -list
//	corralsim -exp fig6 -size m -seed 1
//	corralsim -exp all -size s
//
// Sizes: s (toy, seconds), m (default, scaled 7-rack cluster), l (closest
// to the paper's job counts; minutes).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"corral"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment ID (see -list), or \"all\"")
		size       = flag.String("size", "m", "experiment scale: s, m or l")
		seed       = flag.Int64("seed", 1, "random seed")
		list       = flag.Bool("list", false, "list available experiments")
		asJSON     = flag.Bool("json", false, "emit key outcome values as JSON")
		fuzzTraces = flag.Int("fuzz-traces", 0,
			"trace count for the corralcheck fuzzer (implies -exp fuzz; 0 = bundled default)")
		workers = flag.Int("workers", 0,
			"worker pool bound for parallel experiment sweeps (0 = GOMAXPROCS, 1 = serial; results are identical for any value)")
		tracePath = flag.String("trace", "",
			"write a deterministic simulation-time event trace to this file (.jsonl = flat JSONL; any other extension = Chrome trace-event JSON, loadable in Perfetto)")
		snapshotAt = flag.String("snapshot-at", "",
			"capture the crash-resume scenario run at this point (\"ev:N\" = after N events, \"t:SECONDS\" = at simulated time, bare N = ev:N) and write the snapshot to -snapshot-out")
		snapshotOut = flag.String("snapshot-out", "",
			"snapshot output file for -snapshot-at (default snapshot.json)")
		resumePath = flag.String("resume", "",
			"resume a snapshot file written by -snapshot-at: restore, audit, run to completion and print the outcome")
	)
	flag.Parse()
	if err := validateFlagCombos(*exp, *snapshotAt, *snapshotOut, *resumePath, *tracePath, *list, *asJSON, *fuzzTraces); err != nil {
		fmt.Fprintln(os.Stderr, "corralsim:", err)
		flag.Usage()
		os.Exit(2)
	}
	corral.SetSweepWorkers(*workers)

	var collector *corral.TraceCollector
	if *tracePath != "" {
		collector = corral.NewTraceCollector()
		corral.InstallTraceCollector(collector)
	}
	// writeTrace flushes the collected trace; idempotent so error paths can
	// flush before exiting without double-writing on the deferred call.
	writeTrace := func() {
		if collector == nil {
			return
		}
		c := collector
		collector = nil
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*tracePath, ".jsonl") {
			err = c.WriteJSONL(f)
		} else {
			err = c.WriteChrome(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("writing trace %s: %v", *tracePath, err))
		}
	}
	defer writeTrace()

	if *snapshotAt != "" {
		target, err := parseTarget(*snapshotAt)
		if err != nil {
			fatal(err)
		}
		sz, err := parseSize(*size)
		if err != nil {
			fatal(err)
		}
		snap, err := corral.CaptureScenarioSnapshot(sz, *seed, target)
		if err != nil {
			fatal(err)
		}
		raw, err := corral.EncodeSnapshot(snap)
		if err != nil {
			fatal(err)
		}
		out := *snapshotOut
		if out == "" {
			out = "snapshot.json"
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: seed %d captured at event %d (t=%.3f s, %d bytes)\n",
			out, snap.Meta.Seed, snap.Meta.EventIndex, snap.Meta.SimTime, len(raw))
		return
	}

	if *resumePath != "" {
		raw, err := os.ReadFile(*resumePath)
		if err != nil {
			fatal(err)
		}
		snap, err := corral.DecodeSnapshot(raw)
		if err != nil {
			fatal(err)
		}
		mon := corral.NewInvariantMonitor(snap.Spec.Topology)
		res, err := corral.ResumeSnapshot(snap, corral.ResumeOptions{Probe: mon})
		if err != nil {
			fatal(err)
		}
		writeTrace()
		fmt.Printf("resumed %s from event %d (t=%.3f s): makespan %.3f s, %d events, %d jobs (%d failed), %d replans\n",
			*resumePath, snap.Meta.EventIndex, snap.Meta.SimTime,
			res.Makespan, res.Events, len(res.Jobs), res.FailedJobs, res.Replans)
		if n := mon.ViolationCount(); n != 0 {
			fatal(fmt.Errorf("resumed run raised %d invariant violations: %v", n, mon.Violations()))
		}
		return
	}

	// Every report path funnels into one list of (id, run) pairs, so the
	// output and the exit gate below are shared.
	type run struct {
		id string
		fn func(corral.ExperimentSize) (*corral.ExperimentReport, error)
	}
	var runs []run
	switch {
	case *fuzzTraces > 0:
		runs = []run{{"fuzz", func(sz corral.ExperimentSize) (*corral.ExperimentReport, error) {
			return corral.RunFuzzExperiment(sz, *seed, *fuzzTraces)
		}}}
	case *list || *exp == "":
		fmt.Println("available experiments:")
		for _, e := range corral.Experiments() {
			fmt.Printf("  %-20s %s\n", e.ID, e.Description)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun one with: corralsim -exp <id>")
		}
		return
	default:
		ids := []string{*exp}
		if *exp == "all" {
			ids = ids[:0]
			for _, e := range corral.Experiments() {
				ids = append(ids, e.ID)
			}
		}
		for _, id := range ids {
			runs = append(runs, run{id, func(sz corral.ExperimentSize) (*corral.ExperimentReport, error) {
				return corral.RunExperiment(id, sz, *seed)
			}})
		}
	}

	sz, err := parseSize(*size)
	if err != nil {
		fatal(err)
	}
	values := map[string]map[string]float64{}
	for _, r := range runs {
		report, err := r.fn(sz)
		if err != nil {
			fatal(err)
		}
		values[r.id] = report.Values
		if !*asJSON {
			fmt.Println(report)
		}
	}
	if *asJSON {
		emitJSON(values)
	}
	if err := failedChecks(values); err != nil {
		writeTrace()
		fatal(err)
	}
}

// selfChecks are the report values that count a run's failed self-checks:
// fuzz invariant violations, resume-equivalence mismatches and scale-cell
// verification failures. Any non-zero one fails the command. Overload's
// violations_unsuppressed_* values are anti-vacuity proofs that must be
// non-zero, so they are not checked.
var selfChecks = []struct{ key, what string }{
	{"violations", "invariant violations"},
	{"mismatches", "resumed runs diverged from the uninterrupted run"},
	{"verification_failures", "scale cells failed determinism/resume verification"},
}

// failedChecks reports every non-zero self-check value across the reports,
// keyed by experiment ID, in ID order.
func failedChecks(values map[string]map[string]float64) error {
	ids := make([]string, 0, len(values))
	for id := range values {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var failed []string
	for _, id := range ids {
		for _, c := range selfChecks {
			if n := values[id][c.key]; n != 0 {
				failed = append(failed, fmt.Sprintf("%s: %g %s", id, n, c.what))
			}
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return errors.New(strings.Join(failed, "; "))
}

func emitJSON(v map[string]map[string]float64) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func parseSize(s string) (corral.ExperimentSize, error) {
	switch s {
	case "s", "small":
		return corral.SizeSmall, nil
	case "m", "medium":
		return corral.SizeMedium, nil
	case "l", "large", "full":
		return corral.SizeLarge, nil
	}
	return 0, fmt.Errorf("unknown size %q (want s, m or l)", s)
}

// validateFlagCombos rejects flag combinations with no coherent meaning;
// the caller prints usage and exits non-zero.
func validateFlagCombos(exp, snapshotAt, snapshotOut, resume, trace string, list, asJSON bool, fuzzTraces int) error {
	if fuzzTraces < 0 {
		return fmt.Errorf("-fuzz-traces must be non-negative (0 = bundled default)")
	}
	if fuzzTraces > 0 {
		switch {
		case exp != "" && exp != "fuzz":
			return fmt.Errorf("-fuzz-traces implies -exp fuzz and cannot be combined with -exp %s", exp)
		case list:
			return fmt.Errorf("-fuzz-traces cannot be combined with -list")
		case resume != "":
			return fmt.Errorf("-resume cannot be combined with -fuzz-traces")
		case snapshotAt != "":
			return fmt.Errorf("-snapshot-at cannot be combined with -fuzz-traces")
		}
	}
	if resume != "" && exp != "" {
		return fmt.Errorf("-resume cannot be combined with -exp: a resumed run replays its snapshot's own spec")
	}
	if resume != "" && snapshotAt != "" {
		return fmt.Errorf("-resume and -snapshot-at are mutually exclusive")
	}
	if snapshotAt != "" && exp != "" {
		return fmt.Errorf("-snapshot-at cannot be combined with -exp: it captures the crash-resume scenario run")
	}
	if snapshotOut != "" && snapshotAt == "" {
		return fmt.Errorf("-snapshot-out requires -snapshot-at")
	}
	// Only report runs emit JSON; -trace records any simulation, captured
	// and resumed runs too. With -list, or with no run named at all, the
	// command only prints the list.
	listing := list || exp == "" && fuzzTraces == 0 && resume == "" && snapshotAt == ""
	if asJSON {
		switch {
		case snapshotAt != "":
			return fmt.Errorf("-json cannot be combined with -snapshot-at: it writes a snapshot file, not a report")
		case resume != "":
			return fmt.Errorf("-json cannot be combined with -resume: it prints one outcome line, not a report")
		case list:
			return fmt.Errorf("-json cannot be combined with -list")
		case listing:
			return fmt.Errorf("-json requires -exp")
		}
	}
	if trace != "" {
		switch {
		case list:
			return fmt.Errorf("-trace cannot be combined with -list")
		case listing:
			return fmt.Errorf("-trace requires a run: -exp, -snapshot-at or -resume")
		}
	}
	return nil
}

// parseTarget parses a -snapshot-at value: "ev:N" (after N events),
// "t:SECONDS" (first event boundary at or past that simulated time), or a
// bare integer meaning ev:N.
func parseTarget(s string) (corral.CheckpointTarget, error) {
	switch {
	case strings.HasPrefix(s, "ev:"):
		n, err := strconv.ParseUint(s[len("ev:"):], 10, 64)
		if err != nil || n == 0 {
			return corral.CheckpointTarget{}, fmt.Errorf("bad -snapshot-at %q: want a positive event index", s)
		}
		return corral.CheckpointTarget{EventIndex: n}, nil
	case strings.HasPrefix(s, "t:"):
		v, err := strconv.ParseFloat(s[len("t:"):], 64)
		if err != nil || !(v >= 0) {
			return corral.CheckpointTarget{}, fmt.Errorf("bad -snapshot-at %q: want a non-negative time in seconds", s)
		}
		return corral.CheckpointTarget{SimTime: v}, nil
	default:
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil || n == 0 {
			return corral.CheckpointTarget{}, fmt.Errorf("bad -snapshot-at %q: want \"ev:N\", \"t:SECONDS\" or a positive event index", s)
		}
		return corral.CheckpointTarget{EventIndex: n}, nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corralsim:", err)
	os.Exit(1)
}
