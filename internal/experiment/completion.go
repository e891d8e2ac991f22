package experiment

import "time"

// runUntilDone is the one trial driver: it runs the world until every one
// of n downloaders is done by doneAt and no fault event remains pending
// after faultsUntil (the last scheduled crash or restart; zero without a
// fault plan), or until the horizon.
func (w *world) runUntilDone(faultsUntil time.Duration, n int, doneAt func(i int) (bool, time.Duration)) {
	w.RunUntil(w.horizon, allDone(w.Now, faultsUntil, n, doneAt))
}

// completion is the one fold of a run's n downloaders, each read by
// doneAt, with a downloader that never finished censored at the horizon.
// It returns the TrialResult fields every trial shares (the mean download
// time, completions, downloaders and the medium's transmissions) and the
// latest completion time.
func (w *world) completion(n int, doneAt func(i int) (bool, time.Duration)) (res TrialResult, latest time.Duration) {
	var sum time.Duration
	for i := 0; i < n; i++ {
		done, at := doneAt(i)
		if done {
			res.Completed++
		} else {
			at = w.horizon
		}
		sum += at
		latest = max(latest, at)
	}
	res.AvgDownloadTime = sum / time.Duration(n)
	res.Transmissions = w.Stats().Transmissions
	res.Downloaders = n
	return res, latest
}

// allDone returns runUntilDone's stop condition: true once the clock has
// reached faultsUntil and doneAt(i) reports done for all n downloaders. The
// kernel evaluates it after every event, so it must cost O(1) and allocate
// nothing: a cursor skips downloaders already seen done instead of
// re-asking all of them. That is exact because completion is only ever
// undone by a scheduled restart — while one may still be pending (now <=
// faultsUntil) the scan runs but the cursor is not advanced — so the run
// stops on the same event as asking every downloader every time.
func allDone(now func() time.Duration, faultsUntil time.Duration, n int, doneAt func(i int) (bool, time.Duration)) func() bool {
	next := 0
	return func() bool {
		t := now()
		if t < faultsUntil {
			return false
		}
		i := next
		for i < n {
			if done, _ := doneAt(i); !done {
				break
			}
			i++
		}
		if t > faultsUntil {
			next = i
		}
		return i == n
	}
}
