package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"time"
)

// rounds is how many fresh child processes a run spreads its timed reps
// over. Each child sets up once, from a cold start, so setup_s is the
// median of that many set-ups, and a process-level effect such as heap
// layout weighs on part of the samples rather than all of them.
const rounds = 2

// runDeadline bounds one workload's child processes, so that a run
// always ends, with its children stopped, inside three minutes.
const runDeadline = 170 * time.Second

// Trace modes of -trace.
const (
	traceBoth     = -1 // end-to-end rounds, the last one instrumented
	traceEndToEnd = 0  // end-to-end rounds only
	tracePerLayer = 1  // one instrumented round, per-layer metrics only
)

type options struct {
	seed      int64
	seconds   float64
	trace     int
	traceOut  string
	benchmark *benchmarkFile
}

type report struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     int              `json:"trace"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string                  `json:"name"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  []string                `json:"failures,omitempty"`
	Metrics   map[string]metricReport `json:"metrics,omitempty"`
	Layers    map[string]valueReport  `json:"layers,omitempty"`
	Exact     map[string]valueReport  `json:"exact,omitempty"`
}

type metricReport struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Samples []float64 `json:"samples"`
	Summary summary   `json:"summary"`
}

type valueReport struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

func (wr *workloadReport) check(ok bool, format string, args ...any) {
	wr.Attempted++
	if !ok {
		wr.Failed++
		wr.Failures = append(wr.Failures, fmt.Sprintf(format, args...))
	}
}

// runWorkload runs one workload's rounds, one child process at a time,
// and aggregates what they report.
func runWorkload(o options, w *workload) workloadReport {
	wr := workloadReport{Name: w.name}
	// A per-layer run spends half its time on timed reps, which give the
	// per-layer medians, and the rest on the span and counting runs.
	children, share := rounds, o.seconds/rounds
	if o.trace == tracePerLayer {
		children, share = 1, o.seconds/2
	}
	budget := time.Duration(share * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	var rounds []roundOut
	var rss []float64
	for i := 0; i < children; i++ {
		instrument := o.trace == tracePerLayer || (o.trace == traceBoth && i == children-1)
		traceOut := ""
		if instrument {
			traceOut = o.traceOut
		}
		ro, rssMB, err := spawnRound(ctx, w.name, o.seed, budget, instrument, traceOut)
		wr.check(err == nil, "round %d: %v", i, err)
		if err != nil {
			continue
		}
		wr.Attempted += ro.Attempted
		wr.Failed += ro.Failed
		wr.Failures = append(wr.Failures, ro.Failures...)
		rounds = append(rounds, ro)
		if !instrument {
			// The counting run's tracer buffers every event; its peak
			// memory is tracing's, not the simulator's.
			rss = append(rss, rssMB)
		}
	}
	wr.aggregate(o, rounds, rss)
	return wr
}

// aggregate checks that the rounds agree on every exact outcome and turns
// their records into the report's metrics; rss holds the peak memory of
// the rounds that ran no instrumented pass.
func (wr *workloadReport) aggregate(o options, rounds []roundOut, rss []float64) {
	for i := 1; i < len(rounds); i++ {
		wr.check(reflect.DeepEqual(rounds[i].Exact, rounds[0].Exact), "round %d outcomes differ from round 0's", i)
	}
	if len(rounds) == 0 {
		return
	}

	wr.Exact = map[string]valueReport{}
	for name, v := range rounds[0].Exact {
		wr.Exact[name] = valueReport{Unit: exactUnits[name], Value: v}
	}
	if o.trace != tracePerLayer {
		wr.Metrics = map[string]metricReport{}
		emitted := endToEndSamples(rounds, rss)
		for _, m := range o.benchmark.EndToEnd {
			xs := emitted[m.Name]
			wr.Metrics[m.Name] = metricReport{Unit: m.Unit, Better: m.Better, Samples: xs, Summary: summarize(xs)}
		}
		wr.checkSet("end-to-end", keys(emitted), o.benchmark.EndToEnd)
	}
	if o.trace != traceEndToEnd {
		layers := rounds[len(rounds)-1].Layers
		wr.Layers = map[string]valueReport{}
		for _, m := range o.benchmark.PerLayer {
			if v, ok := layers[m.Name]; ok {
				wr.Layers[m.Name] = valueReport{Unit: m.Unit, Value: v}
			}
		}
		wr.checkSet("per-layer", keys(layers), o.benchmark.PerLayer)
	}
}

// checkSet fails the run unless the emitted metric names are exactly the
// ones BENCHMARK.json declares.
func (wr *workloadReport) checkSet(kind string, emitted []string, declared []metricDef) {
	want := make([]string, len(declared))
	for i, m := range declared {
		want[i] = m.Name
	}
	sort.Strings(want)
	wr.check(reflect.DeepEqual(emitted, want), "%s metrics %v differ from BENCHMARK.json's %v", kind, emitted, want)
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// spawnRound re-executes this program as a child that runs one round, and
// returns the child's report and peak resident set in MB.
func spawnRound(ctx context.Context, name string, seed int64, budget time.Duration, instrument bool, traceOut string) (roundOut, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return roundOut{}, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", fmt.Sprint(seed), "-budget", budget.String(),
		fmt.Sprintf("-instrument=%v", instrument), "-trace-out", traceOut)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return roundOut{}, 0, fmt.Errorf("child: %w", err)
	}
	var ro roundOut
	if err := json.Unmarshal(stdout.Bytes(), &ro); err != nil {
		return roundOut{}, 0, fmt.Errorf("child output: %w", err)
	}
	// Linux reports ru_maxrss in KiB.
	rss := float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) * 1024 / 1e6
	return ro, rss, nil
}

// childMain runs one round in this process and writes its report to
// stdout for the parent.
func childMain(name string, seed int64, budget time.Duration, instrument bool, traceOut string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	out := round{w: w, seed: seed, budget: budget, instrument: instrument, traceOut: traceOut}.run()
	return json.NewEncoder(os.Stdout).Encode(out)
}

// traceOutFor names the Chrome trace file of one workload: the -trace-out
// path itself for a single workload, else the path with the workload's
// name before the extension.
func traceOutFor(path, name string, many bool) string {
	if path == "" || !many {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + name + ext
}

// printWorkload writes one workload's metrics as a table.
func printWorkload(wout io.Writer, wr workloadReport) {
	fmt.Fprintf(wout, "== %s: %d operations, %d failed (failed_op_frac %.4g)\n",
		wr.Name, wr.Attempted, wr.Failed, ratio(float64(wr.Failed), float64(wr.Attempted)))
	for _, f := range wr.Failures {
		fmt.Fprintf(wout, "   FAILED: %s\n", f)
	}
	if len(wr.Metrics) > 0 {
		fmt.Fprintf(wout, "   %-26s %-9s %4s %12s %12s %12s %7s %s\n", "end-to-end", "unit", "n", "median", "q1", "q3", "spread", "high")
		for _, name := range keys(wr.Metrics) {
			m := wr.Metrics[name]
			s := m.Summary
			high := ""
			if s.HighPct > 0 {
				high = fmt.Sprintf("p%g=%.6g", s.HighPct, s.High)
			}
			fmt.Fprintf(wout, "   %-26s %-9s %4d %12.6g %12.6g %12.6g %6.1f%% %s\n",
				name, m.Unit, s.N, s.Median, s.Q1, s.Q3, 100*s.spread(), high)
		}
	}
	printValues(wout, "per-layer", wr.Layers)
	printValues(wout, "exact", wr.Exact)
}

func printValues(wout io.Writer, title string, vals map[string]valueReport) {
	if len(vals) == 0 {
		return
	}
	fmt.Fprintf(wout, "   %-30s %-9s %14s\n", title, "unit", "value")
	for _, name := range keys(vals) {
		v := vals[name]
		fmt.Fprintf(wout, "   %-30s %-9s %14.6g\n", name, v.Unit, v.Value)
	}
}

// resultLine is the one-line JSON summary printed last. With several
// workloads, metric names are prefixed with "<workload>/".
func resultLine(rep report) ([]byte, bool, error) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]valueReport `json:"metrics"`
	}{Metrics: map[string]valueReport{}}
	many := len(rep.Workloads) > 1
	for _, wr := range rep.Workloads {
		out.Attempted += wr.Attempted
		out.Failed += wr.Failed
		prefix := ""
		if many {
			prefix = wr.Name + "/"
		}
		for name, m := range wr.Metrics {
			out.Metrics[prefix+name] = valueReport{Unit: m.Unit, Value: m.Summary.Median}
		}
		for name, v := range wr.Layers {
			out.Metrics[prefix+name] = v
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	line, err := json.Marshal(out)
	return line, out.Correct, err
}
