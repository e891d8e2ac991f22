package experiment

import (
	"time"

	"dapes/internal/core"
	"dapes/internal/ndn"
)

// allDone returns the stop condition every trial driver hands to RunUntil:
// true once the clock has reached faultsUntil (the last scheduled crash or
// restart; zero without a fault plan) and done(i) holds for all n
// downloaders. The kernel evaluates it after every event, so it must cost
// O(1) and allocate nothing: a cursor skips downloaders already seen done
// instead of re-asking all of them. That is exact because completion is
// only ever undone by a scheduled restart — while one may still be pending
// (now <= faultsUntil) the scan runs but the cursor is not advanced — so the
// run stops on the same event as asking every downloader every time.
func allDone(now func() time.Duration, faultsUntil time.Duration, n int, done func(i int) bool) func() bool {
	next := 0
	return func() bool {
		t := now()
		if t < faultsUntil {
			return false
		}
		i := next
		for i < n && done(i) {
			i++
		}
		if t > faultsUntil {
			next = i
		}
		return i == n
	}
}

// collectionDone adapts DAPES downloaders to allDone.
func collectionDone(downloaders []*core.Peer, collection ndn.Name) func(i int) bool {
	return func(i int) bool {
		done, _ := downloaders[i].Done(collection)
		return done
	}
}
