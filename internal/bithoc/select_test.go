package bithoc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dapes/internal/bitmap"
	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// scanSelect is the definition selectPiece is held to: the full scan it
// replaced, ranging the peer table for every missing piece.
func scanSelect(p *Peer) (piece, holder int) {
	bestPiece, bestHolder, bestRarity, bestHops := -1, -1, -1, 1<<30
	for i := 0; i < p.nPieces; i++ {
		if p.have.Test(i) {
			continue
		}
		if _, in := p.inflight[i]; in {
			continue
		}
		rarity := 0
		holderID, holderHops := -1, 1<<30
		for id, info := range p.peers {
			if info.bm == nil || info.bm.Len() != p.nPieces {
				continue
			}
			if !info.bm.Test(i) {
				rarity++
				continue
			}
			if info.hops < holderHops || (info.hops == holderHops && id < holderID) {
				holderID, holderHops = id, info.hops
			}
		}
		if holderID < 0 {
			continue
		}
		if rarity > bestRarity || (rarity == bestRarity && holderHops < bestHops) {
			bestPiece, bestHolder, bestRarity, bestHops = i, holderID, rarity, holderHops
		}
	}
	return bestPiece, bestHolder
}

// checkSelectionState recounts everything selectPiece reads from the peer
// table and the pipeline, and compares its answer with the scan's.
func checkSelectionState(t *testing.T, p *Peer, step string) {
	t.Helper()
	ranked := 0
	missing := make([]int, p.nPieces)
	for id, info := range p.peers {
		valid := info.bm.Len() == p.nPieces
		if info.ranked != valid || info.id != id {
			t.Fatalf("%s: peer %d ranked=%v, bitmap valid=%v", step, id, info.ranked, valid)
		}
		if !valid {
			continue
		}
		ranked++
		for i := range missing {
			if !info.bm.Test(i) {
				missing[i]++
			}
		}
	}
	if p.rarity.Len() != ranked || len(p.byDist) != ranked {
		t.Fatalf("%s: %d valid peers, rarity holds %d, byDist %d", step, ranked, p.rarity.Len(), len(p.byDist))
	}
	for i, want := range missing {
		if got := p.rarity.Of(i); got != want {
			t.Fatalf("%s: rarity of piece %d = %d, recount %d", step, i, got, want)
		}
	}
	for i, info := range p.byDist {
		if p.peers[info.id] != info || !info.ranked {
			t.Fatalf("%s: byDist[%d] (peer %d) is not a ranked peer of the table", step, i, info.id)
		}
		if i > 0 && !closer(p.byDist[i-1], info) {
			t.Fatalf("%s: byDist out of order at %d", step, i)
		}
	}
	for i := 0; i < p.nPieces; i++ {
		if _, in := p.inflight[i]; in != p.busy.Test(i) {
			t.Fatalf("%s: piece %d in flight=%v, busy bit=%v", step, i, in, p.busy.Test(i))
		}
	}
	gotPiece, gotHolder := p.selectPiece()
	wantPiece, wantHolder := scanSelect(p)
	if gotPiece != wantPiece || gotHolder != wantHolder {
		t.Fatalf("%s: selectPiece = (%d, %d), scan = (%d, %d)", step, gotPiece, gotHolder, wantPiece, wantHolder)
	}
}

func helloFrame(origin, seq, ttl int, bm *bitmap.Bitmap) []byte {
	b := []byte{helloMagic, byte(ttl)}
	b = binary.BigEndian.AppendUint32(b, uint32(origin))
	b = binary.BigEndian.AppendUint32(b, uint32(seq))
	return bm.AppendEncode(b)
}

func randomBitmap(rng *rand.Rand, n int, density float64) *bitmap.Bitmap {
	bm := bitmap.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			bm.Set(i)
		}
	}
	return bm
}

// TestSelectPieceMatchesScan drives a peer's swarm view through random
// HELLOs (new peers, re-advertisements that gain and lose bits, stale
// sequence numbers, bitmaps of the wrong length, one- and two-hop copies),
// neighbor expiry, transport-failure eviction, piece arrivals and request
// timeouts, and after every step holds selectPiece to the scan it replaced
// and its incremental state to a recount.
func TestSelectPieceMatchesScan(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 63, 64, 65, 200} {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(n)))
			k := sim.NewKernel(1)
			medium := phy.NewMedium(k, phy.Config{Range: 50})
			p := NewPeer(k, medium, geo.Stationary{})
			p.Fetch(n, 10)
			p.running = true // handlers live, no timers armed: the test is the only driver
			const origins = 12
			bitmaps := make(map[int]*bitmap.Bitmap)
			picks := 0
			for step := 0; step < 3000; step++ {
				var what string
				switch op := rng.Intn(20); {
				case op < 11:
					origin := 1 + rng.Intn(origins)
					bm, known := bitmaps[origin]
					switch {
					case rng.Intn(12) == 0:
						bm = randomBitmap(rng, n+1+rng.Intn(3), 0.5) // another swarm's length
					case !known || rng.Intn(4) == 0:
						bm = randomBitmap(rng, n, rng.Float64())
					default:
						bm = bm.Clone()
						for f := rng.Intn(4); f > 0; f-- { // gain and lose a few bits
							if i := rng.Intn(n); bm.Test(i) {
								bm.Clear(i)
							} else {
								bm.Set(i)
							}
						}
					}
					bitmaps[origin] = bm
					seq := p.seenHello[origin] + rng.Intn(4) - 1 // sometimes one behind
					ttl := 1 + rng.Intn(2)                       // heard directly (hops 1) or relayed (hops 2)
					what = fmt.Sprintf("hello origin=%d seq=%d ttl=%d len=%d", origin, seq, ttl, bm.Len())
					p.onHello(helloFrame(origin, seq, ttl, bm))
				case op < 13:
					what = "expiry"
					for _, info := range p.peers {
						if rng.Intn(4) == 0 {
							info.lastHeard = k.Now() - p.neighborTTL - 1
						}
					}
					p.expirePeers()
				case op < 15:
					dst := 1 + rng.Intn(origins)
					what = fmt.Sprintf("send failure to %d", dst)
					p.onSendFail(0, dst)
				case op < 17:
					piece := rng.Intn(n)
					what = fmt.Sprintf("piece %d arrives", piece)
					msg := binary.BigEndian.AppendUint32([]byte{msgPiece}, uint32(piece))
					p.onReliable(1, msg)
				default:
					what = "request timeout"
					for piece := 0; piece < n; piece++ { // lowest piece in flight
						if pt, ok := p.inflight[piece]; ok {
							pt.fire()
							break
						}
					}
				}
				if piece, _ := scanSelect(p); piece >= 0 {
					picks++
				}
				checkSelectionState(t, p, fmt.Sprintf("step %d (%s)", step, what))
				if p.done { // start the download over with the view as it stands
					p.done = false
					p.Fetch(n, 10)
					checkSelectionState(t, p, fmt.Sprintf("step %d (refetch)", step))
				}
			}
			if picks < 50 {
				t.Fatalf("only %d of 3000 steps left the scan something to pick: the comparison is vacuous", picks)
			}
		})
	}
}

// TestSelectPieceDoesNotAllocate pins the selection at zero allocations in
// the benchmark's shape: 200 pieces, a seeder and a crowd of partial holders.
func TestSelectPieceDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := sim.NewKernel(1)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	p := NewPeer(k, medium, geo.Stationary{})
	p.Fetch(200, 10)
	p.running = true
	full := bitmap.New(200)
	full.SetAll()
	p.onHello(helloFrame(1, 1, 1, full)) // two hops away
	for origin := 2; origin < 44; origin++ {
		p.onHello(helloFrame(origin, 1, 2, randomBitmap(rng, 200, 0.3)))
	}
	if piece, holder := p.selectPiece(); piece < 0 || holder < 0 {
		t.Fatal("nothing to select")
	}
	if avg := testing.AllocsPerRun(200, func() { p.selectPiece() }); avg != 0 {
		t.Fatalf("selectPiece allocates %.1f objects per call, want 0", avg)
	}
}

// TestHelloReheardDoesNotAllocate pins the HELLO receive path: a known peer's
// next HELLO, heard at an unchanged distance and not relayed (TTL 1), decodes
// into the bitmap the peer's entry already holds and costs no object. The
// HELLOs alternate between two bitmaps, so each one is really decoded.
func TestHelloReheardDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := sim.NewKernel(1)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	p := NewPeer(k, medium, geo.Stationary{})
	p.Seed(200, 10) // nothing to fetch: pump returns at once
	p.running = true
	bms := [2]*bitmap.Bitmap{randomBitmap(rng, 200, 0.3), randomBitmap(rng, 200, 0.6)}
	hellos := [2][]byte{helloFrame(1, 1, 1, bms[0]), helloFrame(1, 1, 1, bms[1])}
	p.onHello(hellos[0]) // first hearing: the peer's entry, its bitmap, its rarity member
	seq, heard := 1, 0
	avg := testing.AllocsPerRun(201, func() {
		seq++
		heard = seq % 2
		binary.BigEndian.PutUint32(hellos[heard][6:], uint32(seq))
		p.onHello(hellos[heard])
	})
	if avg != 0 {
		t.Errorf("a re-heard HELLO allocates %.2f objects, want 0", avg)
	}
	info := p.peers[1]
	if info == nil || !info.ranked || info.hops != 2 || !reflect.DeepEqual(info.bm, bms[heard]) {
		t.Fatalf("peer 1 after its HELLOs: %+v, want ranked at 2 hops with the last bitmap heard", info)
	}
	if p.stats.HellosRelayed != 0 || k.Pending() != 0 {
		t.Fatalf("a TTL-1 HELLO was relayed (%d relays, %d events pending)", p.stats.HellosRelayed, k.Pending())
	}
}

// TestForgottenPeerReheardDoesNotAllocate: a peer the swarm view forgot and
// then hears again takes back a forgotten record, its bitmap and a removed
// rarity member's copy, and costs no object.
func TestForgottenPeerReheardDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := sim.NewKernel(1)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	p := NewPeer(k, medium, geo.Stationary{})
	p.Seed(200, 10) // nothing to fetch: pump returns at once
	p.running = true
	bms := [2]*bitmap.Bitmap{randomBitmap(rng, 200, 0.3), randomBitmap(rng, 200, 0.6)}
	hellos := [2][]byte{helloFrame(1, 1, 1, bms[0]), helloFrame(2, 1, 1, bms[1])}
	p.onHello(hellos[0])
	p.onHello(hellos[1])
	heard := 0
	avg := testing.AllocsPerRun(200, func() {
		heard = 1 - heard
		p.forget(p.peers[1+heard])
		p.onHello(hellos[heard])
	})
	if avg != 0 {
		t.Errorf("forgetting a peer and hearing it again allocates %.2f objects, want 0", avg)
	}
	for i, bm := range bms {
		if info := p.peers[1+i]; info == nil || !info.ranked || info.id != 1+i || !reflect.DeepEqual(info.bm, bm) {
			t.Fatalf("peer %d after being forgotten and heard again: %+v, want ranked with its bitmap", 1+i, info)
		}
	}
	if p.rarity.Len() != 2 {
		t.Fatalf("%d rarity members, want 2", p.rarity.Len())
	}
}
