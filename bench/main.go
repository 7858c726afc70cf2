// Command bench is the repository's end-to-end and per-layer benchmark. It
// drives the public corral API through three workloads, times each layer
// from outside by wrapping the calls into it, verifies every output, and
// prints each metric with its unit, sample count, median and quartiles.
//
//	bash bench/run.sh --workload dc-online --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh -seed 1 -json a.json     # every workload, both modes
//	bash bench/run.sh -compare a.json b.json   # apply BENCHMARK.json bounds
//
// Each run re-executes itself as a child process per round, strictly one at
// a time; see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	workloadFlag := flag.String("workload", "", "workload to run (dc-online, paper-batch, chaos-resume); empty runs all")
	seed := flag.Int64("seed", 1, "seed of the workload generator and of every simulation")
	seconds := flag.Float64("seconds", 30, "measuring time per workload, in seconds")
	traceMode := flag.Int("trace", traceBoth, "1 = per-layer metrics only, 0 = end-to-end only, -1 = both")
	jsonOut := flag.String("json", "", "write the full report, with every sample, to this file")
	traceOut := flag.String("trace-out", "", "write the span run's spans as Chrome trace JSON to this file")
	compare := flag.Bool("compare", false, "compare two -json reports given as arguments: base new")
	child := flag.Bool("child", false, "internal: run one round and report it on stdout")
	budget := flag.Duration("budget", 0, "internal: timed-rep budget of a -child round")
	instrument := flag.Bool("instrument", false, "internal: add the span and counting runs to a -child round")
	flag.Parse()

	if *child {
		if err := childMain(*workloadFlag, *seed, *budget, *instrument, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	b, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files: base new")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, b, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *traceMode < traceBoth || *traceMode > tracePerLayer {
		fmt.Fprintln(os.Stderr, "bench: -trace must be -1, 0 or 1")
		os.Exit(2)
	}

	selected := workloads
	if *workloadFlag != "" {
		w, err := lookupWorkload(*workloadFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceMode, benchmark: b}
	rep := report{Seed: *seed, Seconds: *seconds, Trace: *traceMode}
	for _, w := range selected {
		o.traceOut = traceOutFor(*traceOut, w.name, len(selected) > 1)
		t0 := time.Now()
		wr := runWorkload(o, w)
		printWorkload(os.Stdout, wr)
		fmt.Printf("   (%.1fs)\n", time.Since(t0).Seconds())
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line, correct, err := resultLine(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}
