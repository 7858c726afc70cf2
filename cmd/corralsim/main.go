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
		exp    = flag.String("exp", "", "experiment ID (see -list), or \"all\"")
		size   = flag.String("size", "m", "experiment scale: s, m or l")
		seed   = flag.Int64("seed", 1, "random seed")
		list   = flag.Bool("list", false, "list available experiments")
		asJSON = flag.Bool("json", false, "emit key outcome values as JSON")
		chaosI = flag.String("chaos-intensities", "",
			"comma-separated fault intensities for the chaos sweep (implies -exp chaos)")
		fuzzTraces = flag.Int("fuzz-traces", 0,
			"trace count for the corralcheck fuzzer (implies -exp fuzz; 0 = bundled default)")
		arrivalRates = flag.String("arrival-rates", "",
			"comma-separated arrival-rate multipliers for the overload sweep (implies -exp overload)")
		plannerBudget = flag.Float64("planner-budget", 0,
			"planner deadline budget in simulated seconds for the overload sweep (0 = bundled default)")
		replanWindow = flag.Float64("replan-window", 0,
			"replan-storm suppression window in simulated seconds for the overload sweep (0 = bundled default)")
		admissionLimit = flag.Int("admission-limit", 0,
			"max concurrently admitted jobs for the overload sweep (0 = bundled default)")
		machinesList = flag.String("machines", "",
			"comma-separated machine counts for the datacenter-scale suite, e.g. 2000,10000 (implies -exp scale; empty = the size's ladder)")
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
	ov := overloadFlags{
		arrivalRates:   *arrivalRates,
		plannerBudget:  *plannerBudget,
		replanWindow:   *replanWindow,
		admissionLimit: *admissionLimit,
	}
	if err := validateFlagCombos(*exp, *snapshotAt, *snapshotOut, *resumePath, *machinesList, ov); err != nil {
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
	// output and the exit gate below are shared. A bare -exp fuzz, scale,
	// chaos or overload runs the registry entry with the bundled defaults.
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
	case *machinesList != "":
		machines, err := parseInts(*machinesList, "machine count")
		if err != nil {
			fatal(err)
		}
		runs = []run{{"scale", func(sz corral.ExperimentSize) (*corral.ExperimentReport, error) {
			return corral.RunScaleExperiment(sz, *seed, machines)
		}}}
	case *chaosI != "":
		intensities, err := parseFloats(*chaosI, "intensity")
		if err != nil {
			fatal(err)
		}
		runs = []run{{"chaos", func(sz corral.ExperimentSize) (*corral.ExperimentReport, error) {
			return corral.RunChaosExperiment(sz, *seed, intensities)
		}}}
	case ov.arrivalRates != "" || (*exp == "overload" && ov.knobsSet()):
		var rates []float64
		if ov.arrivalRates != "" {
			var err error
			if rates, err = parseFloats(ov.arrivalRates, "arrival rate"); err != nil {
				fatal(err)
			}
		}
		runs = []run{{"overload", func(sz corral.ExperimentSize) (*corral.ExperimentReport, error) {
			return corral.RunOverloadSweep(corral.OverloadParams{
				Size: sz, Seed: *seed, Rates: rates,
				Budget: ov.plannerBudget, Window: ov.replanWindow, AdmissionLimit: ov.admissionLimit,
			})
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
	{"verification_failures", "scale cells failed determinism/resume/plan verification"},
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

// overloadFlags bundles the overload-sweep knobs for validation and
// dispatch.
type overloadFlags struct {
	arrivalRates   string
	plannerBudget  float64
	replanWindow   float64
	admissionLimit int
}

// knobsSet reports whether any hardening knob deviates from its default.
func (f overloadFlags) knobsSet() bool {
	return f.plannerBudget > 0 || f.replanWindow > 0 || f.admissionLimit > 0
}

// validateFlagCombos rejects flag combinations with no coherent meaning;
// the caller prints usage and exits non-zero.
func validateFlagCombos(exp, snapshotAt, snapshotOut, resume, machines string, ov overloadFlags) error {
	if machines != "" {
		if exp != "" && exp != "scale" {
			return fmt.Errorf("-machines implies -exp scale and cannot be combined with -exp %s", exp)
		}
		if resume != "" {
			return fmt.Errorf("-resume cannot be combined with -machines")
		}
		if snapshotAt != "" {
			return fmt.Errorf("-snapshot-at cannot be combined with -machines")
		}
		if ov.arrivalRates != "" || ov.knobsSet() {
			return fmt.Errorf("-machines cannot be combined with overload sweep flags")
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
	if ov.plannerBudget < 0 {
		return fmt.Errorf("-planner-budget must be non-negative (simulated seconds; 0 = default)")
	}
	if ov.replanWindow < 0 {
		return fmt.Errorf("-replan-window must be non-negative (simulated seconds; 0 = default)")
	}
	if ov.admissionLimit < 0 {
		return fmt.Errorf("-admission-limit must be non-negative (0 = default)")
	}
	if ov.arrivalRates != "" && exp != "" && exp != "overload" {
		return fmt.Errorf("-arrival-rates implies -exp overload and cannot be combined with -exp %s", exp)
	}
	if ov.knobsSet() && ov.arrivalRates == "" && exp != "overload" {
		return fmt.Errorf("-planner-budget, -replan-window and -admission-limit configure the overload sweep: add -exp overload or -arrival-rates")
	}
	if ov.arrivalRates != "" || ov.knobsSet() {
		if resume != "" {
			return fmt.Errorf("-resume cannot be combined with overload sweep flags")
		}
		if snapshotAt != "" {
			return fmt.Errorf("-snapshot-at cannot be combined with overload sweep flags")
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
		if err != nil || v < 0 {
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

func parseInts(s, noun string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s %q: want a positive integer", noun, part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s, noun string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %v", noun, part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corralsim:", err)
	os.Exit(1)
}
