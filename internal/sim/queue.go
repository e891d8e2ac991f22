package sim

// heapQueue is a concrete binary min-heap of events ordered by (at, seq).
// It is both the selectable reference backend (QueueHeap) and the structure
// the timer wheel drains the current tick through, so the two backends share
// one definition of event order. Unlike the seed's container/heap queue it
// never boxes through `any`: a push is typed, so a programming error cannot
// silently vanish an event.
type heapQueue struct {
	s []*event
}

// eventLess is the total event order: time first, then scheduling sequence
// (FIFO among equal timestamps). Sequence numbers are unique, so there are
// no ties and every correct implementation pops the same order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *heapQueue) len() int { return len(q.s) }

func (q *heapQueue) peek() *event {
	if len(q.s) == 0 {
		return nil
	}
	return q.s[0]
}

func (q *heapQueue) push(ev *event) {
	ev.index = len(q.s)
	q.s = append(q.s, ev)
	q.up(len(q.s) - 1)
}

func (q *heapQueue) pop() *event {
	n := len(q.s)
	if n == 0 {
		return nil
	}
	ev := q.s[0]
	n--
	if n > 0 {
		q.s[0] = q.s[n]
		q.s[0].index = 0
	}
	q.s[n] = nil
	q.s = q.s[:n]
	if n > 1 {
		q.down(0)
	}
	ev.index = -1
	return ev
}

// remove deletes a queued event from any position (Timer.Stop and
// Timer.Reset). The final heap layout depends on removal order, but the
// extraction order never does — the heap property restores a unique
// (at, seq) pop sequence — so stopping timers in map-iteration order stays
// deterministic.
func (q *heapQueue) remove(ev *event) {
	i := ev.index
	n := len(q.s) - 1
	if i != n {
		q.s[i] = q.s[n]
		q.s[i].index = i
	}
	q.s[n] = nil
	q.s = q.s[:n]
	if i != n {
		if !q.down(i) {
			q.up(i)
		}
	}
	ev.index = -1
}

// adopt replaces the heap's contents with a copy of events and heapifies.
// The wheel uses it to turn a level-0 bucket into the current-tick heap
// without sharing the bucket's backing array.
func (q *heapQueue) adopt(events []*event) {
	q.s = append(q.s[:0], events...)
	for i, ev := range q.s {
		ev.index = i
	}
	for i := len(q.s)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *heapQueue) swap(i, j int) {
	q.s[i], q.s[j] = q.s[j], q.s[i]
	q.s[i].index = i
	q.s[j].index = j
}

func (q *heapQueue) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q.s[i], q.s[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (q *heapQueue) down(i int) bool {
	n := len(q.s)
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(q.s[r], q.s[l]) {
			m = r
		}
		if !eventLess(q.s[m], q.s[i]) {
			break
		}
		q.swap(i, m)
		i = m
	}
	return i > start
}
