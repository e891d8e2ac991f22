package routing

import (
	"bytes"
	"reflect"
	"testing"
)

// TestDecodeFrameIsAView pins the zero-copy half of the frame contract:
// encode writes the whole frame into the buffer it is handed (a pooled wire
// of wireLen capacity, which may hold more), the payload a handler sees is
// the received wire itself, clipped so that growing it cannot touch the wire,
// and a unicast overheard on its way through someone else is rejected
// without allocating anything.
//
// Serial on purpose: AllocsPerRun reads the process-wide counter.
func TestDecodeFrameIsAView(t *testing.T) {
	sent := frame{
		Proto: protoData, Src: 3, Dst: 9, NextHop: 4, TTL: 7, Seq: 11,
		Route:   []int{3, 4, 9},
		Payload: []byte("piece bytes"),
	}
	buf := make([]byte, 0, sent.wireLen())
	wire := sent.encode(buf)
	if len(wire) != sent.wireLen() || &wire[0] != &buf[:1][0] {
		t.Errorf("encode wrote %d of wireLen %d bytes outside the buffer it was handed", len(wire), sent.wireLen())
	}
	f, err := decodeFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Payload) == 0 || &f.Payload[0] != &wire[len(wire)-len(f.Payload)] {
		t.Fatal("payload does not alias the wire")
	}
	if cap(f.Payload) != len(f.Payload) {
		t.Fatalf("payload cap %d != len %d: an append could write into the wire", cap(f.Payload), len(f.Payload))
	}
	// A frame that ends in its route record still hands out a clipped,
	// empty payload; growing either must leave the wire alone.
	bare := (&frame{Proto: protoRREP, Src: 1, Dst: 2, NextHop: 3, Route: []int{2, 3, 1}}).encode(nil)
	bare = append(bare, 0xEE)[:len(bare)] // spare capacity behind the frame
	for _, w := range [][]byte{wire, bare} {
		before := append([]byte(nil), w[:cap(w)]...)
		g, err := decodeFrame(w)
		if err != nil {
			t.Fatal(err)
		}
		_ = append(g.Payload, 0xAA, 0xBB)
		if !bytes.Equal(before, w[:cap(w)]) {
			t.Fatal("append on a decoded payload wrote into the wire buffer")
		}
	}
	if f.Route != nil {
		t.Fatal("decodeFrame materialised the route before the frame was accepted")
	}
	f.decodeRoute()
	if !reflect.DeepEqual(f.Route, sent.Route) {
		t.Fatalf("route = %v, want %v", f.Route, sent.Route)
	}

	const me = 5 // not the frame's next hop
	if avg := testing.AllocsPerRun(100, func() {
		if g, err := decodeFrame(wire); err != nil || g.NextHop == me {
			t.Fatal("the overheard unicast was not rejected from its header")
		}
	}); avg != 0 {
		t.Fatalf("decoding a not-for-me unicast allocates %.1f objects, want 0", avg)
	}
}

// FuzzRoutingFrame holds the codec to its definition on arbitrary bytes:
// decodeFrame never panics, accepts exactly the buffers that hold a whole
// header and the route record it announces (up to 255 hops), and is the
// inverse of encode in both directions, negative (broadcast) addresses
// included.
func FuzzRoutingFrame(f *testing.F) {
	f.Add((&frame{Proto: protoDSDVUpdate, Src: 1, Dst: Broadcast, NextHop: Broadcast, Payload: []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2}}).encode(nil))
	f.Add((&frame{Proto: protoData, Src: 3, Dst: 9, NextHop: 4, TTL: 16, Seq: 1 << 31, Route: []int{3, 4, 9}, Payload: []byte("hello")}).encode(nil))
	f.Add((&frame{Proto: protoRREQ, Src: -7, Dst: -2147483648, NextHop: Broadcast, TTL: 255, Route: []int{-7, 2147483647}}).encode(nil))
	long := &frame{Proto: protoRREP, Route: make([]int, 255)}
	f.Add(long.encode(nil))
	f.Add(long.encode(nil)[:headerLen+4*255-1]) // announces 255 hops, one byte short
	f.Add([]byte{frameMagic, protoData})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := decodeFrame(b)
		whole := len(b) >= headerLen && b[0] == frameMagic && len(b) >= headerLen+4*int(b[19])
		if (err == nil) != whole {
			t.Fatalf("decodeFrame(%x) error = %v, buffer holds a whole frame = %v", b, err, whole)
		}
		if err != nil {
			return
		}
		got.decodeRoute()
		if len(got.Route) != int(b[19]) || len(got.Payload) != len(b)-headerLen-4*len(got.Route) {
			t.Fatalf("decodeFrame(%x): %d hops, %d payload bytes", b, len(got.Route), len(got.Payload))
		}
		wire := got.encode(nil)
		if !bytes.Equal(wire, b) {
			t.Fatalf("encode(decode(b)) = %x, b = %x", wire, b)
		}
		again, err := decodeFrame(wire)
		if err != nil {
			t.Fatal(err)
		}
		again.decodeRoute()
		got.routeWire, again.routeWire = nil, nil
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("decode(encode(f)) = %+v, f = %+v", again, got)
		}
	})
}
