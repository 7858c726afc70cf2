// Command corralsnap inspects and compares corral snapshot files.
//
// Usage:
//
//	corralsnap inspect FILE         summarize one snapshot
//	corralsnap diff FILE1 FILE2     field-level diff of two snapshots
//
// inspect prints the schema version, capture point, run spec summary and
// state summary of a snapshot written by corralsim -snapshot-at or the
// public CaptureSnapshot/EncodeSnapshot API. diff walks every field of
// both snapshots and prints each differing path; it exits 0 when the
// snapshots are identical, 1 when they differ, 2 on usage or decode
// errors.
package main

import (
	"fmt"
	"os"

	"corral/internal/snapshot"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "inspect":
		if len(os.Args) != 3 {
			usage()
		}
		inspect(load(os.Args[2]))
	case "diff":
		if len(os.Args) != 4 {
			usage()
		}
		a, b := load(os.Args[2]), load(os.Args[3])
		diffs := snapshot.Diff(a, b)
		if len(diffs) == 0 {
			fmt.Println("snapshots are identical")
			return
		}
		for _, d := range diffs {
			fmt.Println(d)
		}
		os.Exit(1)
	default:
		usage()
	}
}

func load(path string) *snapshot.Snapshot {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	s, err := snapshot.Decode(raw)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return s
}

func inspect(s *snapshot.Snapshot) {
	fmt.Printf("version:    %d\n", s.Version)
	fmt.Printf("captured:   event %d, t=%.3f s\n", s.Meta.EventIndex, s.Meta.SimTime)
	fmt.Printf("label:      %s\n", s.Meta.Label)
	fmt.Printf("scheduler:  %s (seed %d)\n", s.Spec.Scheduler, s.Spec.Seed)
	policy := s.Spec.Policy
	if policy == "" {
		policy = "default (maxmin-incremental)"
	}
	fmt.Printf("network:    %s\n", policy)
	t := s.Spec.Topology
	fmt.Printf("cluster:    %d racks x %d machines x %d slots\n",
		t.Racks, t.MachinesPerRack, t.SlotsPerMachine)
	fmt.Printf("jobs:       %d (planned assignments: %d)\n", len(s.Spec.Jobs), planned(s))
	fmt.Printf("faults:     %d machine, %d link, %d AM, %d corruption; task crash p=%.3f\n",
		len(s.Spec.Failures), len(s.Spec.LinkFaults), len(s.Spec.AMFailures),
		len(s.Spec.Corruptions), s.Spec.TaskFailureProb)

	st := &s.State
	fmt.Printf("state:      %d pending events, %d rng draws\n", len(st.DES.Pending), st.RNGDraws)
	submitted, done := 0, 0
	for _, j := range st.Runtime.Jobs {
		if j.Submitted {
			submitted++
		}
		if j.Completion >= 0 || j.Failed {
			done++
		}
	}
	fmt.Printf("jobs state: %d submitted, %d finished, %d in-flight attempts, %d replans\n",
		submitted, done, len(st.Runtime.Running), st.Runtime.Replans)
	if st.Net != nil {
		fmt.Printf("network:    %d flows (%d served), %.3g bytes total\n",
			len(st.Net.Flows), st.Net.FlowsServed, st.Net.TotalBytes)
	}
	if st.DFS != nil {
		fmt.Printf("dfs:        %d files, %d repairs recorded\n",
			len(st.DFS.Files), len(st.Runtime.Repairs))
	}
}

func planned(s *snapshot.Snapshot) int {
	if s.Spec.Plan == nil {
		return 0
	}
	return len(s.Spec.Plan.Assignments)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: corralsnap inspect FILE | corralsnap diff FILE1 FILE2")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corralsnap:", err)
	os.Exit(2)
}
