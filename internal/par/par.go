// Package par holds the one fail-fast worker pool the trial runner
// (experiment.Runner) and the plan harness (plan.Run) fan work out with.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach calls fn(0) … fn(n-1) on at most workers goroutines and returns
// the lowest-indexed error any call returned. It fails fast: once a call
// has failed no new index starts (calls in flight finish), so when several
// fail concurrently which ones ran — and so which is lowest — may vary with
// scheduling. With workers <= 1 the calls run in index order on the calling
// goroutine and stop at the first error.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
