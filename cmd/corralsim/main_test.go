package main

import (
	"math"
	"strings"
	"testing"
)

func TestValidateFlagCombos(t *testing.T) {
	cases := []struct {
		name                                           string
		exp, snapshotAt, snapshotOut, resume, machines string
		ov                                             overloadFlags
		wantErr                                        string
	}{
		{name: "plain experiment", exp: "fig6"},
		{name: "snapshot alone", snapshotAt: "ev:100"},
		{name: "snapshot with out", snapshotAt: "t:10", snapshotOut: "s.json"},
		{name: "resume alone", resume: "s.json"},
		{name: "resume with exp", exp: "fig6", resume: "s.json", wantErr: "-resume cannot be combined with -exp"},
		{name: "resume with snapshot", snapshotAt: "ev:5", resume: "s.json", wantErr: "mutually exclusive"},
		{name: "snapshot with exp", exp: "fig6", snapshotAt: "ev:5", wantErr: "-snapshot-at cannot be combined with -exp"},
		{name: "out without at", snapshotOut: "s.json", wantErr: "-snapshot-out requires -snapshot-at"},

		// Overload sweep flags.
		{name: "overload alone", exp: "overload"},
		{name: "overload with knobs", exp: "overload",
			ov: overloadFlags{plannerBudget: 0.5, replanWindow: 10, admissionLimit: 4}},
		{name: "rates imply overload", ov: overloadFlags{arrivalRates: "1,4"}},
		{name: "rates with explicit overload", exp: "overload", ov: overloadFlags{arrivalRates: "1,2,4"}},
		{name: "rates with knobs only", ov: overloadFlags{arrivalRates: "4", admissionLimit: 2}},
		{name: "negative budget", exp: "overload", ov: overloadFlags{plannerBudget: -1},
			wantErr: "-planner-budget must be non-negative"},
		{name: "negative window", exp: "overload", ov: overloadFlags{replanWindow: -0.1},
			wantErr: "-replan-window must be non-negative"},
		{name: "NaN budget", exp: "overload", ov: overloadFlags{plannerBudget: math.NaN()},
			wantErr: "-planner-budget must be non-negative"},
		{name: "NaN window", ov: overloadFlags{arrivalRates: "4", replanWindow: math.NaN()},
			wantErr: "-replan-window must be non-negative"},
		{name: "negative limit", exp: "overload", ov: overloadFlags{admissionLimit: -2},
			wantErr: "-admission-limit must be non-negative"},
		{name: "rates with other exp", exp: "fig6", ov: overloadFlags{arrivalRates: "1,4"},
			wantErr: "-arrival-rates implies -exp overload"},
		{name: "knobs without overload", exp: "fig6", ov: overloadFlags{plannerBudget: 0.5},
			wantErr: "configure the overload sweep"},
		{name: "knobs with nothing else", ov: overloadFlags{admissionLimit: 3},
			wantErr: "configure the overload sweep"},
		{name: "rates with resume", resume: "s.json", ov: overloadFlags{arrivalRates: "1,4"},
			wantErr: "-resume cannot be combined with overload sweep flags"},
		{name: "rates with snapshot", snapshotAt: "ev:5", ov: overloadFlags{arrivalRates: "1,4"},
			wantErr: "-snapshot-at cannot be combined with overload sweep flags"},

		// Scale suite flags.
		{name: "scale alone", exp: "scale"},
		{name: "machines implies scale", machines: "2000"},
		{name: "machines with explicit scale", exp: "scale", machines: "2000,10000"},
		{name: "machines with other exp", exp: "fig6", machines: "2000",
			wantErr: "-machines implies -exp scale"},
		{name: "machines with resume", resume: "s.json", machines: "2000",
			wantErr: "-resume cannot be combined with -machines"},
		{name: "machines with snapshot", snapshotAt: "ev:5", machines: "2000",
			wantErr: "-snapshot-at cannot be combined with -machines"},
		{name: "machines with rates", machines: "2000", ov: overloadFlags{arrivalRates: "1,4"},
			wantErr: "-machines cannot be combined with overload sweep flags"},
	}
	for _, c := range cases {
		err := validateFlagCombos(c.exp, c.snapshotAt, c.snapshotOut, c.resume, c.machines, c.ov)
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

func TestParseInts(t *testing.T) {
	got, err := parseInts("2000, 5000,10000", "machine count")
	if err != nil || len(got) != 3 || got[0] != 2000 || got[1] != 5000 || got[2] != 10000 {
		t.Errorf("parseInts = %v, %v; want [2000 5000 10000]", got, err)
	}
	for _, bad := range []string{"", "abc", "2000,-5", "0", "1.5"} {
		if _, err := parseInts(bad, "machine count"); err == nil {
			t.Errorf("parseInts(%q): no error", bad)
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
