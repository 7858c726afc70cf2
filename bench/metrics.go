package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json: the one place metric units, directions
// and regression bounds are declared.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range append(append([]metricDef(nil), b.EndToEnd...), b.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			return nil, fmt.Errorf("%s: bad metric name %q", path, m.Name)
		}
	}
	return &b, nil
}

// repMetric turns one timed rep into one sample of an end-to-end metric.
type repMetric struct {
	name  string
	value func(repRecord) float64
}

// refSeconds turns CPU seconds measured next to a probe time into
// reference seconds; see probe.go.
func refSeconds(cpu, probeS float64) float64 { return cpu * probeRefS / probeS }

// repMetrics are the end-to-end metrics sampled once per timed rep;
// setup_s and peak_rss_mb are sampled once per child process instead.
// Simulator costs are per simulated event: the generated inputs, and so
// the work, grow and shrink with the seed, while the cost of an event is
// what a change to the simulator moves. The snapshot round trip is one
// metric because the cost of capturing alone depends on how much of the
// run's work falls before the checkpoint, which varies with the seed;
// capture and resume together replay the whole run once. Times are
// reference seconds, each scaled by the probe around its own step.
var repMetrics = []repMetric{
	{"plan_s", func(r repRecord) float64 { return refSeconds(r.PlanS, r.PlanProbeS) }},
	{"sim_events_per_s", func(r repRecord) float64 { return float64(r.Events) / refSeconds(r.SimS, r.SimProbeS) }},
	{"sim_alloc_b_per_event", func(r repRecord) float64 { return float64(r.AllocBytes) / float64(r.Events) }},
	{"snapshot_us_per_event", func(r repRecord) float64 {
		return refSeconds(r.CaptureS+r.EncodeS+r.DecodeS+r.ResumeS, r.SnapProbeS) * 1e6 / float64(r.RunEvents)
	}},
}

// endToEndSamples collects every end-to-end metric's samples over the
// rounds of one run; rssMB holds each child's peak resident set.
func endToEndSamples(rounds []roundOut, rssMB []float64) map[string][]float64 {
	m := map[string][]float64{"peak_rss_mb": rssMB}
	for _, r := range rounds {
		m["setup_s"] = append(m["setup_s"], refSeconds(r.SetupS, r.SetupProbeS))
		for _, rep := range r.Reps {
			for _, f := range repMetrics {
				m[f.name] = append(m[f.name], f.value(rep))
			}
		}
	}
	return m
}

// exactUnits are the units of the deterministic outcomes exactValues
// reports; they are compared for identity, not against a bound.
var exactUnits = map[string]string{
	"events":                "count",
	"sim_makespan_s":        "s",
	"sim_avg_jct_s":         "s",
	"sim_crossrack_gb":      "GB",
	"sim_makespan_gain_pct": "%",
	"plan_objective_s":      "s",
}
