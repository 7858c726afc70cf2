package netsim

import (
	"math"
	"slices"
	"testing"

	"corral/internal/des"
	"corral/internal/trace"
)

func TestCancelReleasesBandwidth(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	var tLong des.Time
	// Two flows share the 8 Gbps uplink; the short one is canceled at
	// t=0.25s, after which the long one runs at full uplink speed.
	// Long: 8 Gb total. Phase 1 (0..0.25s) at 4 Gbps -> 1 Gb done.
	// Phase 2 at 8 Gbps -> 7 Gb / 8 Gbps = 0.875s. Total 1.125s.
	victim := n.Start(0, 4, 100*gbps, 0, 1, func(*Flow) { t.Fatal("canceled flow completed") })
	n.Start(1, 5, 8*gbps, 0, 2, func(*Flow) { tLong = sim.Now() })
	sim.At(0.25, func() { n.Cancel(victim) })
	sim.Run()
	if math.Abs(float64(tLong)-1.125) > 1e-6 {
		t.Fatalf("long flow finished at %v, want 1.125s", tLong)
	}
	if !victim.Canceled() {
		t.Fatal("victim not marked canceled")
	}
}

func TestCancelAccountsPartialBytes(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	// Cross-rack flow at 8 Gbps, canceled after 0.5s -> 4 Gb sent.
	f := n.Start(0, 4, 100*gbps, 0, 3, nil)
	sim.At(0.5, func() { n.Cancel(f) })
	sim.Run()
	want := 4 * gbps
	if math.Abs(n.CrossRackBytes()-want) > 1e3 {
		t.Fatalf("cross-rack bytes after cancel = %g, want %g", n.CrossRackBytes(), want)
	}
	if math.Abs(n.CrossRackBytesByJob(3)-want) > 1e3 {
		t.Fatalf("per-job accounting = %g, want %g", n.CrossRackBytesByJob(3), want)
	}
}

func TestCancelLoopbackSuppressesCallback(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	fired := false
	f := n.Start(2, 2, 1e9, 0, 1, func(*Flow) { fired = true })
	n.Cancel(f)
	sim.Run()
	if fired {
		t.Fatal("canceled loopback callback fired")
	}
}

func TestCancelIdempotentAndNil(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	n.Cancel(nil) // must not panic
	f := n.Start(0, 1, 1e9, 0, 1, nil)
	n.Cancel(f)
	n.Cancel(f)
	sim.Run()
	if n.ActiveFlows() != 0 {
		t.Fatal("canceled flow still active")
	}
}

func TestCancelAfterCompletionIsNoop(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	completed := false
	f := n.Start(0, 1, 1e6, 0, 1, func(*Flow) { completed = true })
	sim.Run()
	if !completed {
		t.Fatal("flow did not complete")
	}
	before := n.TotalBytes()
	n.Cancel(f)
	sim.Run()
	//corralvet:ok floateq exact identity intended: a cancel must neither add nor drop bytes from the total
	if n.TotalBytes() != before {
		t.Fatal("late cancel changed accounting")
	}
}

func TestLinkBytesAccounting(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	cl := testCluster(t)
	n.Start(0, 4, 1e9, 0, 1, nil)
	sim.Run()
	up := n.LinkBytes(cl.MachineUplink(0))
	if math.Abs(up-1e9) > 1e3 {
		t.Fatalf("uplink carried %g bytes, want 1e9", up)
	}
	rackUp := n.LinkBytes(cl.RackUplink(0))
	if math.Abs(rackUp-1e9) > 1e3 {
		t.Fatalf("rack uplink carried %g bytes, want 1e9", rackUp)
	}
	// Untouched link carried nothing.
	if got := n.LinkBytes(cl.MachineUplink(9)); got != 0 {
		t.Fatalf("idle link carried %g bytes", got)
	}
}

// TestCancelInCompletionBatchSkipsDone: two flows finish in one
// recompute and the first one's done cancels the second. The second
// keeps its bytes and its flow_finish trace, but its done never runs.
func TestCancelInCompletionBatchSkipsDone(t *testing.T) {
	for _, pooling := range []bool{false, true} {
		sim, n := newNet(t, MaxMinFair{})
		n.SetFlowPooling(pooling)
		n.Trace = trace.New("batch")
		var second *Flow
		calls := 0
		n.Start(0, 1, 1e6, 0, 1, func(*Flow) {
			calls++
			n.Cancel(second)
		})
		second = n.Start(2, 3, 1e6, 0, 2, func(*Flow) {
			t.Errorf("pooling %v: done ran for a flow an earlier done of its batch canceled", pooling)
		})
		ids := []int64{1, second.ID}
		sim.Run()
		if calls != 1 {
			t.Fatalf("pooling %v: first done ran %d times, want 1", pooling, calls)
		}
		if n.TotalBytes() != 2e6 || n.FlowsServed() != 2 {
			t.Fatalf("pooling %v: total bytes %g, served %d; want 2e6 and 2", pooling, n.TotalBytes(), n.FlowsServed())
		}
		var finished []int64
		for _, e := range n.Trace.Events() {
			if e.Kind == trace.KFlowFinish {
				finished = append(finished, e.Flow)
			}
		}
		if !slices.Equal(finished, ids) {
			t.Fatalf("pooling %v: flow_finish for %v, want %v", pooling, finished, ids)
		}
	}
}

// TestPooledLoopbackCancel: a canceled loopback flow's event still fires
// at its time (it counts in Fired) and reports to nobody, and the object
// returns to the pool only then, so a loopback started meanwhile gets a
// fresh object and reports once.
func TestPooledLoopbackCancel(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	n.SetFlowPooling(true)
	victim := n.Start(2, 2, 1e9, 0, 1, func(*Flow) { t.Fatal("canceled loopback reported") })
	n.Cancel(victim)
	var doneAt []des.Time
	other := n.Start(3, 3, 2e9, 0, 2, func(*Flow) { doneAt = append(doneAt, sim.Now()) })
	if other == victim {
		t.Fatal("a canceled loopback was reused while its event was queued")
	}
	sim.Run()
	if len(doneAt) != 1 || doneAt[0] != 2e9/loopbackRate {
		t.Fatalf("second loopback reported at %v, want once at %v", doneAt, 2e9/loopbackRate)
	}
	if sim.Fired() != 2 || n.FlowsServed() != 1 {
		t.Fatalf("fired %d events, served %d flows; want 2 and 1", sim.Fired(), n.FlowsServed())
	}
	if again := n.Start(2, 2, 1e9, 0, 3, nil); again != other {
		t.Fatal("the last retired loopback was not reused")
	}
}

// TestPooledLoopbackZeroAlloc requires a warmed, pooled loopback
// start→fire to allocate nothing.
func TestPooledLoopbackZeroAlloc(t *testing.T) {
	sim, n := newNet(t, MaxMinFair{})
	n.SetFlowPooling(true)
	served := 0
	done := func(*Flow) { served++ }
	n.Start(2, 2, 1e6, 0, 1, done)
	sim.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		n.Start(2, 2, 1e6, 0, 1, done)
		sim.Step()
	}); allocs != 0 {
		t.Fatalf("pooled loopback start→fire allocates %v objects, want 0", allocs)
	}
	if served != 102 {
		t.Fatalf("%d loopbacks reported, want 102", served)
	}
}
