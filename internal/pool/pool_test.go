package pool

import (
	"errors"
	goruntime "runtime"
	"sync/atomic"
	"testing"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		hits := make([]int32, 100)
		if err := For(len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: unexpected error: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	SetWorkers(0)
	if err := For(0, func(int) error { t.Fatal("fn called for n=0"); return nil }); err != nil {
		t.Fatalf("n=0: unexpected error: %v", err)
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	defer SetWorkers(0)
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 8} {
		SetWorkers(workers)
		err := For(50, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: got error %v, want the lowest-index error %v", workers, err, errLow)
		}
	}
}

// TestNestedForKeepsOneBound: a For inside a For closure shares the
// process-wide bound, so at two workers no more than two leaf calls run
// at once (one per-call bound would allow 2×2).
func TestNestedForKeepsOneBound(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	var running, peak atomic.Int32
	hits := make([]int32, 6)
	err := For(3, func(i int) error {
		return For(2, func(j int) error {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			// Hold the slot until a third leaf joins or the other
			// workers have had ample yields to start theirs.
			for k := 0; k < 1000 && running.Load() <= 2; k++ {
				goruntime.Gosched()
			}
			running.Add(-1)
			atomic.AddInt32(&hits[2*i+j], 1)
			return nil
		})
	})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak of %d concurrent leaf calls at 2 workers, want at most 2", p)
	}
	for k, h := range hits {
		if h != 1 {
			t.Fatalf("leaf %d ran %d times", k, h)
		}
	}
}
