// Package bithoc implements the Bithoc baseline of the paper's comparison
// (Krifa et al., Sbai et al.): BitTorrent adapted to MANETs. Peers flood
// scoped HELLO messages to discover each other and the pieces they hold,
// split neighbors into "close" (≤ 2 hops) and "far", fetch pieces with a
// rarest-piece-first policy over reliable (TCP-like) unicast, and rely on
// DSDV proactive routing for reachability.
//
// Every architectural cost the paper attributes to Bithoc is present:
// periodic DSDV table dumps, application-layer flooding, per-receiver
// unicast data (no overhearing benefit), and TCP-style retransmissions.
package bithoc

import (
	"encoding/binary"
	"math/bits"
	"time"

	"dapes/internal/bitmap"
	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/routing"
	"dapes/internal/sim"
	"dapes/internal/transport"
)

// Application frame/message types.
const (
	helloMagic = 0x30 // broadcast HELLO frames (outside the routing stack)
	msgRequest = 0x31 // reliable piece request
	msgPiece   = 0x32 // reliable piece payload
)

// The peer's HELLO flooding and piece requests.
const (
	// helloPeriod is the scoped-flooding period.
	helloPeriod = 2 * time.Second
	// helloTTL bounds the flood scope; 2 hops defines "close" neighbors.
	helloTTL = 2
	// pipeline bounds outstanding piece requests.
	pipeline = 4
	// requestTimeout re-arms a piece request that produced no piece.
	requestTimeout = 3 * time.Second
	// neighborTTL expires neighbors whose HELLOs stopped.
	neighborTTL = 12 * time.Second
)

// Stats counts Bithoc application activity.
type Stats struct {
	HellosSent     uint64
	HellosRelayed  uint64
	RequestsSent   uint64
	PiecesSent     uint64
	PiecesReceived uint64
	RequestRetries uint64
}

type peerInfo struct {
	id        int
	hops      int // flood distance when last heard
	bm        *bitmap.Bitmap
	lastHeard time.Duration
	// ranked marks a peer whose bitmap covers the swarm's pieces: it is a
	// member of Peer.rarity and listed in Peer.byDist.
	ranked bool
}

// Peer is one Bithoc node.
type Peer struct {
	k        *sim.Kernel
	medium   *phy.Medium
	radio    *phy.Radio
	router   *routing.DSDV
	reliable *transport.Reliable
	rng      sim.Stream // the node's sim.PurposePeer stream
	// neighborTTL is the package's neighborTTL; a field only so that a test
	// that must not see HELLO expiry can raise it.
	neighborTTL time.Duration
	stats       Stats

	nPieces   int
	pieceSize int
	have      *bitmap.Bitmap
	peers     map[int]*peerInfo
	// gone holds the records forget dropped, bitmaps and all, for onHello
	// to reuse for the next new peer.
	gone      []*peerInfo
	inflight  map[int]*pieceTimeout // piece -> timeout record
	piecePool []*pieceTimeout       // reusable timeout records
	resp      []byte                // scratch piece response (onReliable)

	// Selection state, kept current where peers and inflight change so
	// selectPiece never walks the peer table: rarity counts, per piece, the
	// ranked peers missing it; byDist lists the ranked peers closest first
	// (hops, then ID — the holder preference); busy mirrors keys(inflight).
	rarity    *bitmap.Rarity
	byDist    []*peerInfo
	busy      *bitmap.Bitmap
	helloSeq  int
	seenHello map[int]int // origin -> highest seq relayed
	running   bool
	helloT    *sim.Timer
	doneAt    time.Duration
	done      bool
}

// pieceTimeout re-arms an unanswered piece request. Records (and their
// kernel timers) are pooled: nearly every request is answered before the
// timeout, so the cancel path dominates and must not allocate.
type pieceTimeout struct {
	p     *Peer
	t     *sim.Timer
	piece int
}

func (pt *pieceTimeout) fire() {
	p := pt.p
	p.release(pt)
	p.stats.RequestRetries++
	p.pump()
}

// release takes a request out of flight — answered, timed out or abandoned —
// and pools its record.
func (p *Peer) release(pt *pieceTimeout) {
	pt.t.Stop()
	delete(p.inflight, pt.piece)
	p.busy.Clear(pt.piece)
	p.piecePool = append(p.piecePool, pt)
}

// releaseAll empties the pipeline (completion, a new swarm).
func (p *Peer) releaseAll() {
	// Map order only decides pool order, and pooled records are reset before reuse.
	for _, pt := range p.inflight {
		p.release(pt)
	}
}

// NewPeer attaches a Bithoc peer to the medium.
func NewPeer(k *sim.Kernel, medium *phy.Medium, mobility geo.Mobility) *Peer {
	p := &Peer{
		k:           k,
		medium:      medium,
		neighborTTL: neighborTTL,
		peers:       make(map[int]*peerInfo),
		inflight:    make(map[int]*pieceTimeout),
		seenHello:   make(map[int]int),
	}
	p.helloT = k.NewTimer(p.helloTick)
	p.router = routing.NewDSDV(k, medium, mobility)
	p.radio = p.router.Radio()
	p.rng = k.Stream(p.radio.ID(), sim.PurposePeer)
	p.reliable = transport.NewReliable(k, p.router)
	p.reliable.SetReceive(p.onReliable)
	p.reliable.SetOnFail(p.onSendFail)
	// Chain onto the radio handler: routing frames go to DSDV (already
	// installed); HELLO floods are ours.
	prev := p.radio.Handler()
	p.radio.SetHandler(func(f phy.Frame) {
		if len(f.Payload) > 0 && f.Payload[0] == helloMagic {
			p.onHello(f.Payload)
			return
		}
		if prev != nil {
			prev(f)
		}
	})
	return p
}

// onSendFail hears the transport abandon a message after MaxRetries: the
// neighbor is unreachable, so drop it from the swarm view and re-plan
// immediately, instead of re-requesting from a dead holder until its HELLO
// state ages out of the peer table.
func (p *Peer) onSendFail(_ uint32, dst int) {
	if !p.running {
		return
	}
	if info, known := p.peers[dst]; known {
		p.forget(info)
		p.pump()
	}
}

// ID returns the peer's network identifier.
func (p *Peer) ID() int { return p.router.ID() }

// Seed initializes the peer with every piece of the swarm's content.
func (p *Peer) Seed(nPieces, pieceSize int) {
	p.initSwarm(nPieces, pieceSize)
	p.have.SetAll()
	p.done = true
}

// Fetch initializes the peer as a downloader.
func (p *Peer) Fetch(nPieces, pieceSize int) {
	p.initSwarm(nPieces, pieceSize)
}

func (p *Peer) initSwarm(nPieces, pieceSize int) {
	p.releaseAll()
	p.nPieces = nPieces
	p.pieceSize = pieceSize
	p.have = bitmap.New(nPieces)
	p.busy = bitmap.New(nPieces)
	p.rarity = bitmap.NewRarity(nPieces)
	p.byDist = p.byDist[:0]
	// Peers heard before the swarm was known are ranked against it now.
	for _, info := range p.peers {
		info.ranked = false
		p.rank(info, false)
	}
}

// Done reports completion and its virtual time.
func (p *Peer) Done() (bool, time.Duration) { return p.done, p.doneAt }

// Start activates routing, HELLO flooding, and fetching.
func (p *Peer) Start() {
	if p.running {
		return
	}
	p.running = true
	p.router.Start()
	p.helloT.Reset(p.rng.Jitter(helloPeriod))
}

// --- HELLO flooding ---

func (p *Peer) helloTick() {
	if !p.running {
		return
	}
	p.expirePeers()
	if p.have != nil {
		p.helloSeq++
		p.stats.HellosSent++
		p.medium.BroadcastOwned(p.radio, p.encodeHello(p.ID(), p.helloSeq, helloTTL))
	}
	p.helloT.Reset(helloPeriod + p.rng.Jitter(helloPeriod/4))
	p.pump()
}

// helloHeaderLen is a HELLO's fixed part: magic, TTL, origin and sequence
// number. The sender's bitmap follows.
const helloHeaderLen = 10

// encodeHello builds a HELLO in a wire from the medium's pool, sized for the
// bitmap's whole words, which AppendEncode writes before cutting the tail to
// its bytes. The medium takes the wire back when its transmission is over:
// onHello keeps no view of a heard one (DecodeFrom copies the bitmap, and
// rarity keeps its own copy of that).
func (p *Peer) encodeHello(origin, seq, ttl int) []byte {
	b := append(p.medium.Wire(helloHeaderLen+4+8*((p.have.Len()+63)/64)), helloMagic, byte(ttl))
	b = binary.BigEndian.AppendUint32(b, uint32(origin))
	b = binary.BigEndian.AppendUint32(b, uint32(seq))
	return p.have.AppendEncode(b)
}

// onHello takes a heard HELLO. The bitmap is validated before any state
// changes and decoded only if the HELLO is accepted, into the bitmap the
// peer's entry already holds: rarity keeps its own copy of every member, so
// nothing else sees the overwrite.
func (p *Peer) onHello(payload []byte) {
	if !p.running || len(payload) < helloHeaderLen {
		return
	}
	ttl := int(payload[1])
	origin := int(binary.BigEndian.Uint32(payload[2:6]))
	seq := int(binary.BigEndian.Uint32(payload[6:10]))
	if origin == p.ID() {
		return
	}
	enc := payload[helloHeaderLen:]
	n, _, err := bitmap.EncodedLen(enc)
	if err != nil {
		return
	}
	hops := helloTTL - ttl + 1
	if info, ok := p.peers[origin]; !ok || seq >= p.helloSeqOf(origin) {
		if !ok {
			info = p.newPeerInfo(origin)
			p.peers[origin] = info
		}
		if info.bm == nil || info.bm.Len() != n {
			info.bm = bitmap.New(n)
		}
		info.bm.DecodeFrom(enc) // cannot fail: validated above, length matched
		moved := info.hops != hops
		info.hops = hops
		info.lastHeard = p.k.Now()
		p.rank(info, moved)
	}
	// Scoped relay with duplicate suppression. The copy, in a wire from the
	// medium's pool, is the relay's own: the heard one is immutable and goes
	// back to the pool after this handler, and the TTL byte changes.
	if ttl > 1 && p.seenHello[origin] < seq {
		p.seenHello[origin] = seq
		relay := append(p.medium.Wire(len(payload)), payload...)
		relay[1] = byte(ttl - 1)
		p.medium.BroadcastOwnedAfter(p.rng.Jitter(50*time.Millisecond), p.radio, relay, &p.stats.HellosRelayed, &p.running)
	}
	p.pump()
}

func (p *Peer) helloSeqOf(origin int) int { return p.seenHello[origin] }

func (p *Peer) expirePeers() {
	now := p.k.Now()
	for _, info := range p.peers {
		if now-info.lastHeard > p.neighborTTL {
			p.forget(info)
		}
	}
}

// forget drops a peer from the swarm view and keeps its record for reuse.
func (p *Peer) forget(info *peerInfo) {
	p.unrank(info)
	delete(p.peers, info.id)
	p.gone = append(p.gone, info)
}

// newPeerInfo returns a blank record for a newly heard peer: one forget
// dropped, keeping its bitmap for onHello to decode into, or a new one.
func (p *Peer) newPeerInfo(id int) *peerInfo {
	last := len(p.gone) - 1
	if last < 0 {
		return &peerInfo{id: id}
	}
	info := p.gone[last]
	p.gone[last] = nil
	p.gone = p.gone[:last]
	*info = peerInfo{id: id, bm: info.bm}
	return info
}

// rank brings the selection state up to date with info's latest HELLO: a
// bitmap over the swarm's pieces is (re)counted in rarity and the peer listed
// in byDist — again, if its hop count moved; any other length takes the peer
// out of both, as the scan this replaces skipped it.
func (p *Peer) rank(info *peerInfo, moved bool) {
	if p.rarity == nil || p.rarity.Put(info.id, info.bm) != nil {
		p.unrank(info)
		return
	}
	if info.ranked {
		if !moved {
			return
		}
		p.unlist(info)
	}
	info.ranked = true
	i := len(p.byDist)
	p.byDist = append(p.byDist, info)
	for ; i > 0 && closer(info, p.byDist[i-1]); i-- {
		p.byDist[i] = p.byDist[i-1]
	}
	p.byDist[i] = info
}

// unrank removes info from rarity and byDist; a no-op for unranked peers.
func (p *Peer) unrank(info *peerInfo) {
	if info.ranked {
		info.ranked = false
		p.rarity.Remove(info.id)
		p.unlist(info)
	}
}

func (p *Peer) unlist(info *peerInfo) {
	for i, other := range p.byDist {
		if other == info {
			p.byDist = append(p.byDist[:i], p.byDist[i+1:]...)
			return
		}
	}
}

// closer orders holders: fewer hops first, ties toward the lower peer ID so
// the choice never depends on map iteration order.
func closer(a, b *peerInfo) bool {
	return a.hops < b.hops || (a.hops == b.hops && a.id < b.id)
}

// --- Piece fetching (rarest piece first) ---

// pump keeps the request pipeline full.
func (p *Peer) pump() {
	if !p.running || p.done || p.have == nil {
		return
	}
	for len(p.inflight) < pipeline {
		piece, holder := p.selectPiece()
		if piece < 0 {
			return
		}
		p.requestPiece(piece, holder)
	}
}

// selectPiece picks the rarest missing piece available from some peer —
// the one most ranked peers lack, then the one whose closest holder is
// fewest hops away, then the lowest index — and that closest holder,
// preferring close neighbors over far ones as Bithoc does. Candidates are
// the pieces neither held nor in flight, a word at a time; a holder is
// looked up only for a piece that can still displace the running best.
func (p *Peer) selectPiece() (piece, holder int) {
	bestPiece, bestHolder, bestRarity, bestHops := -1, -1, -1, 1<<30
	ranked := p.rarity.Len()
	for w := 0; w*64 < p.nPieces; w++ {
		for cand := ^(p.have.Word(w) | p.busy.Word(w)); cand != 0; cand &= cand - 1 {
			i := w*64 + bits.TrailingZeros64(cand)
			if i >= p.nPieces {
				break
			}
			rarity := p.rarity.Of(i)
			if rarity < bestRarity || rarity == ranked {
				continue // commoner than the best, or held by nobody
			}
			// A tie on rarity must be strictly closer than the best's holder.
			within := 1 << 30
			if rarity == bestRarity {
				within = bestHops
			}
			if h := p.closestHolder(i, within); h != nil {
				bestPiece, bestHolder, bestRarity, bestHops = i, h.id, rarity, h.hops
			}
		}
	}
	return bestPiece, bestHolder
}

// closestHolder returns the first peer in holder preference order that has
// piece i and is fewer than within hops away, or nil.
func (p *Peer) closestHolder(i, within int) *peerInfo {
	for _, info := range p.byDist {
		if info.hops >= within {
			return nil
		}
		if info.bm.Test(i) {
			return info
		}
	}
	return nil
}

func (p *Peer) requestPiece(piece, holder int) {
	req := [5]byte{msgRequest}
	binary.BigEndian.PutUint32(req[1:], uint32(piece))
	p.stats.RequestsSent++
	p.reliable.Send(holder, req[:], nil)
	var pt *pieceTimeout
	if n := len(p.piecePool); n > 0 {
		pt = p.piecePool[n-1]
		p.piecePool[n-1] = nil
		p.piecePool = p.piecePool[:n-1]
	} else {
		pt = &pieceTimeout{p: p}
		pt.t = p.k.NewTimer(pt.fire)
	}
	pt.piece = piece
	p.inflight[piece] = pt
	p.busy.Set(piece)
	pt.t.Reset(requestTimeout)
}

// --- Reliable receive path ---

func (p *Peer) onReliable(src int, payload []byte) {
	if !p.running || len(payload) < 5 {
		return
	}
	switch payload[0] {
	case msgRequest:
		piece := int(binary.BigEndian.Uint32(payload[1:5]))
		if p.have == nil || !p.have.Test(piece) {
			return
		}
		// Send copies the payload, so one scratch response serves every
		// request; its piece bytes are never written.
		if len(p.resp) != 5+p.pieceSize {
			p.resp = make([]byte, 5+p.pieceSize)
		}
		p.resp[0] = msgPiece
		binary.BigEndian.PutUint32(p.resp[1:], uint32(piece))
		p.stats.PiecesSent++
		p.reliable.Send(src, p.resp, nil)
	case msgPiece:
		piece := int(binary.BigEndian.Uint32(payload[1:5]))
		if p.have == nil || piece < 0 || piece >= p.nPieces || p.have.Test(piece) {
			return
		}
		p.have.Set(piece)
		p.stats.PiecesReceived++
		if pt, ok := p.inflight[piece]; ok {
			p.release(pt)
		}
		if p.have.Full() && !p.done {
			p.done = true
			p.doneAt = p.k.Now()
			p.releaseAll()
			return
		}
		p.pump()
	}
}
