// Package pool is the one bounded worker pool: experiment sweeps fan
// their cells out over it and the planner's provisioning fast path fans
// its candidate blocks out over it, under one process-wide worker bound,
// nested calls included.
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

// helpers counts the helper goroutines running in every For of the
// process. Each For also works on its calling goroutine, so at most
// Workers()-1 helpers keep nested Fors within the bound.
var helpers atomic.Int64

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

// claimHelper reserves one helper slot if fewer than Workers()-1 are
// taken. It never blocks, so a For nested in a For closure runs on its
// caller when the slots are taken and cannot deadlock.
func claimHelper() bool {
	for {
		h := helpers.Load()
		if h >= int64(Workers()-1) {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// For runs fn(0..n-1) on the calling goroutine plus as many helpers as
// the process-wide bound has free, up to min(Workers(), n)-1, and
// returns the lowest-index error, or nil.
func For(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	work := func() {
		for i := int(next.Add(1)); i < n; i = int(next.Add(1)) {
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for k := min(Workers(), n) - 1; k > 0 && claimHelper(); k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1)
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
