// Package pool is the one bounded worker pool: experiment sweeps fan
// their cells out over it and the planner's provisioning fast path fans
// its candidate blocks out over it, under one worker bound.
//
// Determinism obligations: worker scheduling must never leak into
// results. A closure passed to For may write only to its own
// index-addressed slot (slots[i] = ...); everything shared is merged
// serially in index order after For returns, so reductions see their
// operands in the order a serial loop would and results are bit-identical
// for any worker count. corralvet's sweepsafe check enforces the write
// discipline on every For closure.
package pool

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
)

// bound is the configured worker bound; <= 0 means GOMAXPROCS.
var bound atomic.Int64

// SetWorkers bounds the pool. n <= 0 restores the default (GOMAXPROCS);
// n == 1 forces serial execution. The setting changes wall-clock only,
// never results.
func SetWorkers(n int) { bound.Store(int64(n)) }

// Workers reports the current effective worker bound.
func Workers() int {
	if n := int(bound.Load()); n > 0 {
		return n
	}
	return goruntime.GOMAXPROCS(0)
}

// For runs fn(0..n-1) across the pool and returns the lowest-index
// error, or nil.
func For(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	w := min(Workers(), n)
	if w <= 1 {
		for i := range n {
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)); i < n; i = int(next.Add(1)) {
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
