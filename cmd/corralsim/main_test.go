package main

import (
	"strings"
	"testing"
)

func TestValidateFlagCombos(t *testing.T) {
	cases := []struct {
		name                                        string
		exp, snapshotAt, snapshotOut, resume, trace string
		list, json                                  bool
		fuzzTraces                                  int
		wantErr                                     string
	}{
		{name: "plain experiment", exp: "fig6"},
		{name: "snapshot alone", snapshotAt: "ev:100"},
		{name: "snapshot with out", snapshotAt: "t:10", snapshotOut: "s.json"},
		{name: "resume alone", resume: "s.json"},
		{name: "resume with exp", exp: "fig6", resume: "s.json", wantErr: "-resume cannot be combined with -exp"},
		{name: "resume with snapshot", snapshotAt: "ev:5", resume: "s.json", wantErr: "mutually exclusive"},
		{name: "snapshot with exp", exp: "fig6", snapshotAt: "ev:5", wantErr: "-snapshot-at cannot be combined with -exp"},
		{name: "out without at", snapshotOut: "s.json", wantErr: "-snapshot-out requires -snapshot-at"},

		// -fuzz-traces: nightly CI runs it bare.
		{name: "fuzz traces imply fuzz", fuzzTraces: 100},
		{name: "fuzz traces with explicit fuzz", exp: "fuzz", fuzzTraces: 100},
		{name: "fuzz traces with other exp", exp: "fig6", fuzzTraces: 1,
			wantErr: "-fuzz-traces implies -exp fuzz and cannot be combined with -exp fig6"},
		{name: "fuzz traces with list", list: true, fuzzTraces: 1,
			wantErr: "-fuzz-traces cannot be combined with -list"},
		{name: "fuzz traces with resume", resume: "s.json", fuzzTraces: 1,
			wantErr: "-resume cannot be combined with -fuzz-traces"},
		{name: "fuzz traces with snapshot", snapshotAt: "ev:5", fuzzTraces: 1,
			wantErr: "-snapshot-at cannot be combined with -fuzz-traces"},
		{name: "negative fuzz traces", exp: "fuzz", fuzzTraces: -3,
			wantErr: "-fuzz-traces must be non-negative"},

		// -json only applies to report runs.
		{name: "json with exp", exp: "all", json: true},
		{name: "json with fuzz traces", fuzzTraces: 100, json: true},
		{name: "json with snapshot", snapshotAt: "ev:5", json: true,
			wantErr: "-json cannot be combined with -snapshot-at"},
		{name: "json with resume", resume: "s.json", json: true,
			wantErr: "-json cannot be combined with -resume"},
		{name: "json with list", list: true, json: true,
			wantErr: "-json cannot be combined with -list"},
		{name: "json without exp", json: true, wantErr: "-json requires -exp"},

		// -trace records report, captured and resumed runs.
		{name: "trace with exp", exp: "fig6", trace: "t.json"},
		{name: "trace with snapshot", snapshotAt: "ev:5", trace: "t.json"},
		{name: "trace with resume", resume: "s.json", trace: "t.json"},
		{name: "trace with list", list: true, trace: "t.json",
			wantErr: "-trace cannot be combined with -list"},
		{name: "trace without a run", trace: "t.json", wantErr: "-trace requires a run"},
	}
	for _, c := range cases {
		err := validateFlagCombos(c.exp, c.snapshotAt, c.snapshotOut, c.resume, c.trace, c.list, c.json, c.fuzzTraces)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
}

func TestFailedChecks(t *testing.T) {
	cases := []struct {
		name    string
		values  map[string]map[string]float64
		wantErr string // substring; "" = no error
	}{
		{name: "no reports"},
		{name: "clean self-checks", values: map[string]map[string]float64{
			"fuzz":   {"violations": 0, "traces": 24},
			"resume": {"mismatches": 0},
			"scale":  {"verification_failures": 0},
		}},
		{name: "reports without self-checks", values: map[string]map[string]float64{
			"fig6": {"gain": 1.4}, "chaos": {"corral_replan_avg": 120},
		}},
		{name: "overload anti-vacuity keys are not gated", values: map[string]map[string]float64{
			"overload": {"violations_unsuppressed_r04": 7, "violations_budgeted_r04": 0},
		}},
		{name: "fuzz violations", values: map[string]map[string]float64{
			"fuzz": {"violations": 2},
		}, wantErr: "fuzz: 2 invariant violations"},
		{name: "resume mismatches", values: map[string]map[string]float64{
			"resume": {"mismatches": 1},
		}, wantErr: "resume: 1 resumed runs diverged"},
		{name: "scale verification failures", values: map[string]map[string]float64{
			"scale": {"verification_failures": 3},
		}, wantErr: "scale: 3 scale cells failed"},
		{name: "all lists every failure in id order", values: map[string]map[string]float64{
			"scale":  {"verification_failures": 1},
			"fig6":   {"gain": 1.4},
			"resume": {"mismatches": 2},
			"fuzz":   {"violations": 1},
		}, wantErr: "fuzz: 1 invariant violations; resume: 2 resumed runs diverged from the uninterrupted run; scale: 1 scale cells"},
	}
	for _, c := range cases {
		err := failedChecks(c.values)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseTarget(t *testing.T) {
	for _, c := range []struct {
		in      string
		wantEv  uint64
		wantT   float64
		wantErr bool
	}{
		{in: "ev:123", wantEv: 123},
		{in: "456", wantEv: 456},
		{in: "t:12.5", wantT: 12.5},
		{in: "t:0", wantT: 0},
		{in: "ev:0", wantErr: true},
		{in: "0", wantErr: true},
		{in: "t:-1", wantErr: true},
		{in: "t:nan", wantErr: true},
		{in: "ev:abc", wantErr: true},
		{in: "whenever", wantErr: true},
		{in: "", wantErr: true},
	} {
		got, err := parseTarget(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseTarget(%q): no error, got %+v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseTarget(%q): %v", c.in, err)
			continue
		}
		//corralvet:ok floateq exact identity intended: the checkpoint time parses from a literal and must round-trip bit for bit
		if got.EventIndex != c.wantEv || got.SimTime != c.wantT {
			t.Errorf("parseTarget(%q) = %+v, want ev=%d t=%g", c.in, got, c.wantEv, c.wantT)
		}
	}
}
