package routing

import (
	"time"

	"dapes/internal/phy"
	"dapes/internal/sim"
)

// txQueue puts one node's frames on the air, each after the jitter its
// router drew for it. Records are pooled and keep their event func (fire, the
// method value of send), so a transmission costs its wire buffer and nothing
// else; a frame that comes due on a stopped node is dropped.
type txQueue struct {
	k       *sim.Kernel
	medium  *phy.Medium
	radio   *phy.Radio
	running *bool // the router's
	idle    []*txJob
}

// txJob is one frame waiting out its jitter. count, when set, is the
// counter the frame bumps as it goes on the air.
type txJob struct {
	q     *txQueue
	wire  []byte
	count *uint64
	fire  func()
}

// after broadcasts wire after delay, unless the node has been stopped by
// then.
func (q *txQueue) after(delay time.Duration, wire []byte, count *uint64) {
	var j *txJob
	if n := len(q.idle); n > 0 {
		j = q.idle[n-1]
		q.idle = q.idle[:n-1]
	} else {
		j = &txJob{q: q}
		j.fire = j.send
	}
	j.wire, j.count = wire, count
	q.k.ScheduleFunc(delay, j.fire)
}

func (j *txJob) send() {
	q, wire, count := j.q, j.wire, j.count
	j.wire, j.count = nil, nil
	q.idle = append(q.idle, j)
	if !*q.running {
		return
	}
	if count != nil {
		*count++
	}
	q.medium.Broadcast(q.radio, wire)
}
