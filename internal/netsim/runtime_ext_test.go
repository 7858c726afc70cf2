package netsim_test

import (
	"reflect"
	"testing"

	"corral/internal/job"
	"corral/internal/model"
	"corral/internal/netsim"
	"corral/internal/planner"
	"corral/internal/runtime"
	"corral/internal/topology"
	"corral/internal/workload"
)

// TestRunResultMatchesMaxMinFair is the runtime-level half of the
// allocator differential: a full simulated execution (placement, shuffle,
// DFS writes, accounting) must produce a DeepEqual Result under the
// default allocator and under the per-flow MaxMinFair oracle. Two shapes cover it: the Fig 6 small-profile W1 batch on a
// cluster with background core traffic, and the scale suite's online
// stream on a 200-machine cell.
func TestRunResultMatchesMaxMinFair(t *testing.T) {
	const gbps = 1e9 / 8
	small := topology.Config{Racks: 5, MachinesPerRack: 4, SlotsPerMachine: 2, NICBandwidth: 10 * gbps, Oversubscription: 5}
	small.BackgroundPerRack = 0.5 * small.RackUplinkCapacity()
	for _, tc := range []struct {
		name string
		topo topology.Config
		wcfg workload.Config
		obj  planner.Objective
	}{
		{"fig6-small-batch", small,
			workload.Config{Seed: 11, Jobs: 21, Scale: 1.0 / 20, TaskScale: 1.0 / 20},
			planner.MinimizeMakespan},
		{"scale-200-online",
			topology.Config{Racks: 5, MachinesPerRack: 40, SlotsPerMachine: 2, NICBandwidth: 10 * gbps, Oversubscription: 5},
			workload.Config{Seed: 7, Jobs: 164, Scale: 1.0 / 8, TaskScale: 1.0 / 8, ArrivalWindow: 10},
			planner.MinimizeAvgCompletion},
	} {
		jobs := workload.W1(tc.wcfg)
		var planned []*job.Job
		for _, j := range jobs {
			if !j.AdHoc {
				planned = append(planned, j)
			}
		}
		plan, err := planner.New(planner.Input{Cluster: model.FromTopology(tc.topo), Jobs: planned, Alpha: -1, Objective: tc.obj})
		if err != nil {
			t.Fatal(err)
		}
		run := func(p netsim.Policy) *runtime.Result {
			res, err := runtime.Run(runtime.Options{
				Cluster: tc.topo, Scheduler: runtime.Corral, Plan: plan, Seed: tc.wcfg.Seed, Network: p,
			}, workload.Clone(jobs))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return res
		}
		got, ref := run(nil), run(netsim.MaxMinFair{})
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: Result under the default allocator diverges from MaxMinFair:\n default: %+v\n maxmin:  %+v",
				tc.name, got, ref)
		}
	}
}
