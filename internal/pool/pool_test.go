package pool

import (
	"errors"
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
