package ndn

import (
	"fmt"
	"testing"
)

// benchData builds a representative DAPES collection packet (1 KB payload,
// digest integrity), matching the paper's packet size.
func benchData() *Data {
	d := &Data{
		Name:    ParseName("/field-report/image-000/17"),
		Content: make([]byte, 1000),
	}
	d.SignDigest()
	return d
}

// BenchmarkWirePath measures one broadcast hop end to end at the codec
// level: the sender produces the frame bytes and k receivers parse them —
// the O(senders×receivers) work the dense scenarios multiply out — on the
// shared wire path (cached encode, one memoized decode for all k
// receivers). The gap over the pre-refactor codec (re-encode per send, k
// independent copying parses) is history in docs/PERFORMANCE.md;
// TestWirePathAllocationBudget pins the objects per packet.
func BenchmarkWirePath(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			d := benchData()
			d.Encode() // encode-once: the send site caches on first use
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pkt := NewPacket(d.Encode())
				for r := 0; r < k; r++ {
					if pkt.Data() == nil {
						b.Fatal(pkt.Err())
					}
				}
			}
		})
	}
}

// BenchmarkWirePathFreshEncode isolates the sender side for packets built
// per transmission (discovery replies, bitmap advertisements): serialization
// is paid once, however often the same object is broadcast again (relays,
// suppression retries).
func BenchmarkWirePathFreshEncode(b *testing.B) {
	d := benchData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(d.Encode()) == 0 {
			b.Fatal("empty encode")
		}
	}
}
