package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachCallsEveryIndexOnce(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 3, 64} {
		calls := make([]atomic.Int32, 50)
		if err := ForEach(len(calls), workers, func(i int) error {
			calls[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Errorf("workers=%d: index %d called %d times", workers, i, n)
			}
		}
	}
}

// TestForEachFailsFastWithTheLowestError: indexes are claimed in order, so
// when every index from 2 up fails, 2 ran before any other failure could be
// returned in its place; and most of the 1000 never start.
func TestForEachFailsFastWithTheLowestError(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEach(1000, workers, func(i int) error {
			ran.Add(1)
			if i >= 2 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 2" {
			t.Errorf("workers=%d: err = %v, want index 2's", workers, err)
		}
		if got := ran.Load(); got > int32(2+workers) {
			t.Errorf("workers=%d: %d calls ran, want at most %d (no new work after a failure)", workers, got, 2+workers)
		}
	}
}
