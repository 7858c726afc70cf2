// Command workloadgen emits one of the paper's workloads as JSON, for use
// with corralplan or custom tooling. It can also emit a seeded chaos fault
// trace (transient machine failures + rack-uplink degradation windows) for
// the default cluster shape.
//
// Usage:
//
//	workloadgen -workload w1 -jobs 50 -scale 0.1 -window 600 > jobs.json
//	workloadgen -fault-trace -intensity 0.3 -horizon 600 > faults.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"corral"
)

func main() {
	var (
		name   = flag.String("workload", "w1", "workload: w1, w2, w3 or tpch")
		jobs   = flag.Int("jobs", 0, "job count (0 = workload default)")
		scale  = flag.Float64("scale", 1, "byte-size scale factor")
		seed   = flag.Int64("seed", 1, "random seed")
		window = flag.Float64("window", 0, "arrival window in seconds (0 = batch)")
		dbGB   = flag.Float64("tpch-db-gb", 200, "TPC-H database size in GB")

		trace     = flag.Bool("fault-trace", false, "emit a chaos fault trace instead of jobs")
		intensity = flag.Float64("intensity", 0.3, "fault trace: expected failures per machine over the horizon")
		horizon   = flag.Float64("horizon", 600, "fault trace: horizon in simulated seconds")
		racks     = flag.Int("racks", 0, "fault trace: rack count (0 = default cluster)")
		perRack   = flag.Int("machines-per-rack", 0, "fault trace: machines per rack (0 = default cluster)")
	)
	flag.Parse()

	// The generators would panic on a negative job count and silently
	// replace a non-positive scale, database size or cluster shape with a
	// default, so reject such values here. The negated comparisons also
	// reject NaN. An infinite value fails too: +Inf sizes cannot be
	// encoded as JSON, an infinite horizon yields an empty fault trace, and
	// an infinite intensity fails every machine back to back.
	switch {
	case *jobs < 0:
		fatal(fmt.Errorf("-jobs %d: must be >= 0 (0 = workload default)", *jobs))
	case !(*scale > 0) || math.IsInf(*scale, 1):
		fatal(fmt.Errorf("-scale %g: must be finite and > 0", *scale))
	case !(*window >= 0) || math.IsInf(*window, 1):
		fatal(fmt.Errorf("-window %g: must be finite and >= 0 (0 = batch)", *window))
	case !(*dbGB > 0) || math.IsInf(*dbGB, 1):
		fatal(fmt.Errorf("-tpch-db-gb %g: must be finite and > 0", *dbGB))
	case !(*intensity >= 0) || math.IsInf(*intensity, 1):
		fatal(fmt.Errorf("-intensity %g: must be finite and >= 0", *intensity))
	case !(*horizon > 0) || math.IsInf(*horizon, 1):
		fatal(fmt.Errorf("-horizon %g: must be finite and > 0", *horizon))
	case *racks < 0:
		fatal(fmt.Errorf("-racks %d: must be >= 0 (0 = default cluster)", *racks))
	case *perRack < 0:
		fatal(fmt.Errorf("-machines-per-rack %d: must be >= 0 (0 = default cluster)", *perRack))
	}

	if *trace {
		cluster := corral.DefaultCluster()
		if *racks > 0 {
			cluster.Racks = *racks
		}
		if *perRack > 0 {
			cluster.MachinesPerRack = *perRack
		}
		failures, faults := corral.GenChaosTrace(cluster, *seed, *intensity, *horizon)
		emit(struct {
			Failures   []corral.Failure
			LinkFaults []corral.LinkFault
		}{failures, faults})
		return
	}

	cfg := corral.WorkloadConfig{
		Seed: *seed, Jobs: *jobs, Scale: *scale, ArrivalWindow: *window,
	}
	var out []*corral.Job
	switch *name {
	case "w1":
		out = corral.W1(cfg)
	case "w2":
		out = corral.W2(cfg)
	case "w3":
		out = corral.W3(cfg)
	case "tpch":
		out = corral.TPCH(cfg, *dbGB*1e9)
	default:
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	emit(out)
}

func emit(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "workloadgen:", err)
	os.Exit(1)
}
