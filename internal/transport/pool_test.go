package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"dapes/internal/routing"
	"dapes/internal/sim"
)

// tapRouter is a Router that goes nowhere: it keeps a copy of every segment
// handed to Send and lets the test play the far end through deliver.
type tapRouter struct {
	sent    [][]byte
	deliver func(src int, payload []byte)
}

var _ routing.Router = (*tapRouter)(nil)

func (r *tapRouter) ID() int { return 1 }
func (r *tapRouter) Send(dst int, payload []byte) bool {
	r.sent = append(r.sent, append([]byte(nil), payload...))
	return true
}
func (r *tapRouter) SetDeliver(fn func(src int, payload []byte)) { r.deliver = fn }
func (r *tapRouter) Start()                                      {}
func (r *tapRouter) ControlTransmissions() uint64                { return 0 }

// ack plays the receiver acknowledging message id.
func (r *tapRouter) ack(id uint32) {
	r.deliver(2, binary.BigEndian.AppendUint32([]byte{msgAck}, id))
}

func segment(id uint32, payload string) []byte {
	return append(binary.BigEndian.AppendUint32([]byte{msgData}, id), payload...)
}

// TestRetransmissionsResendTheSameSegment sends two unanswered messages from
// one caller-owned buffer and requires every attempt of each to put the same
// bytes on the air: the header and the payload as it was when Send was
// called.
func TestRetransmissionsResendTheSameSegment(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	tap := &tapRouter{}
	r := NewReliable(k, tap)
	buf := []byte("first message")
	r.Send(2, buf, nil)
	copy(buf, "FIRST") // the caller's buffer is its own again
	r.Send(2, buf[:5], nil)
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if r.Failures != 2 || len(r.pending) != 0 {
		t.Fatalf("failures = %d, pending = %d; want both messages abandoned", r.Failures, len(r.pending))
	}
	attempts := map[uint32]int{}
	for _, seg := range tap.sent {
		id := binary.BigEndian.Uint32(seg[1:5])
		want := segment(1, "first message")
		if id == 2 {
			want = segment(2, "FIRST")
		}
		if !bytes.Equal(seg, want) {
			t.Fatalf("attempt %d of message %d sent %q, want %q", attempts[id], id, seg, want)
		}
		attempts[id]++
	}
	if attempts[1] != 1+maxRetries || attempts[2] != 1+maxRetries {
		t.Fatalf("attempts = %v, want 1 + maxRetries for each message", attempts)
	}
}

// TestPoolConsistentAfterAckAndFailure walks a Reliable through every way a
// message ends and checks the record accounting at each: a record is in
// pending, in the pool, or waiting on its one queued send — never two of
// them — and a recycled record is never reachable from a stale event.
func TestPoolConsistentAfterAckAndFailure(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	tap := &tapRouter{}
	r := NewReliable(k, tap)
	account := func(step string, pending, pooled int) {
		t.Helper()
		if len(r.pending) != pending || len(r.free) != pooled {
			t.Fatalf("%s: pending = %d, pooled = %d; want %d, %d", step, len(r.pending), len(r.free), pending, pooled)
		}
		seen := map[*outstanding]bool{}
		for _, out := range r.free {
			if seen[out] || out.sendQueued || out.rtoT.Pending() || r.pending[out.id] == out {
				t.Fatalf("%s: pooled record %d is duplicated, armed or still pending", step, out.id)
			}
			seen[out] = true
		}
	}

	// Acked after its first transmission.
	var done []bool
	onDone := func(ok bool) { done = append(done, ok) }
	r.Send(2, []byte("one"), onDone)
	k.Run(k.Now() + jitter)
	tap.ack(1)
	account("acked", 0, 1)

	// Abandoned after maxRetries: the pooled record carries the next message.
	r.Send(2, []byte("two"), onDone)
	account("resent on the pooled record", 1, 0)
	k.Run(k.Now() + time.Minute)
	account("abandoned", 0, 1)
	if len(done) != 2 || !done[0] || done[1] || r.Failures != 1 {
		t.Fatalf("onDone = %v, failures = %d; want [true false], 1", done, r.Failures)
	}

	// Acked while a retransmission waits out its jitter: the record stays
	// out of the pool until that send has fired, so message four cannot be
	// handed a record a queued event still points at.
	r.Send(2, []byte("three"), nil)
	retransmitted := r.Retransmissions
	if !k.RunUntil(k.Now()+time.Minute, func() bool { return r.Retransmissions == retransmitted+1 }) {
		t.Fatal("message three never retransmitted")
	}
	tap.ack(3)
	account("acked with a send queued", 0, 0)
	before := len(tap.sent)
	r.Send(2, []byte("four"), nil)
	k.Run(k.Now() + jitter)
	if got := tap.sent[before:]; len(got) != 1 || !bytes.Equal(got[0], segment(4, "four")) {
		t.Fatalf("after the stale send's slot: %q on the air, want message four once", got)
	}
	account("stale send drained", 1, 1)
	tap.ack(4)
	account("four acked", 0, 2)
}

// nullRouter is a Router whose Send keeps nothing: it only counts.
type nullRouter struct {
	sent    int
	deliver func(src int, payload []byte)
}

func (r *nullRouter) ID() int                                     { return 1 }
func (r *nullRouter) Send(int, []byte) bool                       { r.sent++; return true }
func (r *nullRouter) SetDeliver(fn func(src int, payload []byte)) { r.deliver = fn }
func (r *nullRouter) Start()                                      {}
func (r *nullRouter) ControlTransmissions() uint64                { return 0 }

// TestAckDoesNotAllocate pins the receive side's ack: a data message heard
// again — a duplicate, as a retransmission whose ack was lost is — is acked
// through a pooled record, and the delivery plus the ack's jittered send cost
// no object once the pool and the kernel are warm.
func TestAckDoesNotAllocate(t *testing.T) {
	k := sim.NewKernel(1)
	null := &nullRouter{}
	r := NewReliable(k, null)
	delivered := 0
	r.SetReceive(func(int, []byte) { delivered++ })
	seg := segment(7, "piece")
	once := func() {
		null.deliver(2, seg)
		if err := k.Run(k.Now() + jitter); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ { // fill the pools across the wheel's slots
		once()
	}
	if avg := testing.AllocsPerRun(200, once); avg != 0 {
		t.Errorf("a duplicate data message and its ack allocate %.2f objects, want 0", avg)
	}
	if delivered != 1 || r.AcksSent != 713 || null.sent != 713 || k.Pending() != 0 {
		t.Fatalf("delivered %d, acked %d, sent %d, %d events pending; want 1, 713, 713, 0",
			delivered, r.AcksSent, null.sent, k.Pending())
	}
}
