// Package ekta implements the Ekta baseline of the paper's comparison
// (Pucha, Das & Hu): a DHT substrate integrated with DSR for locating data
// objects in a MANET, with UDP-style datagram transfers. A downloader first
// resolves each piece through the DHT (lookup messages across the overlay),
// then fetches it from the holder with best-effort datagrams and
// application-level retries.
package ekta

import (
	"encoding/binary"
	"fmt"
	"time"

	"dapes/internal/bitmap"
	"dapes/internal/dht"
	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/routing"
	"dapes/internal/sim"
	"dapes/internal/transport"
)

// Application message types (distinct from the DHT's 0x20 range).
const (
	msgGet   = 0x40
	msgPiece = 0x41
)

// The peer's fetch loop.
const (
	// pipeline bounds concurrent piece operations (lookup or transfer).
	pipeline = 6
	// getTimeout re-arms an unanswered datagram GET.
	getTimeout = 1500 * time.Millisecond
	// maxGetRetries bounds GET retries before re-looking-up the holder.
	maxGetRetries = 8
	// pumpPeriod drives the fetch loop even without inbound events.
	pumpPeriod = time.Second
	// failureCooldown delays re-attempts of a piece whose lookup or
	// transfer just failed, so a temporarily unreachable holder does not
	// trigger continuous DSR discovery floods.
	failureCooldown = 6 * time.Second
)

// Stats counts Ekta application activity.
type Stats struct {
	Lookups        uint64
	LookupFailures uint64
	GetsSent       uint64
	GetRetries     uint64
	PiecesSent     uint64
	PiecesReceived uint64
}

// pieceState tracks one in-flight piece (lookup, then datagram GETs). The
// records — including their GET-timeout timer and its closure — are pooled
// per peer; gen distinguishes successive uses of one record for the same
// piece so a late lookup callback from an abandoned attempt stays inert.
type pieceState struct {
	p       *Peer
	piece   int
	holder  int
	retries int
	gen     uint64
	t       *sim.Timer
}

// Peer is one Ekta node.
type Peer struct {
	k        *sim.Kernel
	router   *routing.DSR
	datagram *transport.Datagram
	node     *dht.Node
	rng      sim.Stream // the node's sim.PurposePeer stream
	stats    Stats

	swarm     string
	nPieces   int
	pieceSize int
	have      *bitmap.Bitmap
	pending   map[int]*pieceState
	piecePool []*pieceState
	cooldown  map[int]time.Duration // piece -> retry-not-before
	pumpCount int
	running   bool
	pumpT     *sim.Timer
	resp      []byte // scratch piece response (onDatagram)
	done      bool
	doneAt    time.Duration
}

// NewPeer attaches an Ekta peer to the medium.
func NewPeer(k *sim.Kernel, medium *phy.Medium, mobility geo.Mobility) *Peer {
	p := &Peer{
		k:        k,
		pending:  make(map[int]*pieceState),
		cooldown: make(map[int]time.Duration),
	}
	p.pumpT = k.NewTimer(p.pumpTick)
	p.router = routing.NewDSR(k, medium, mobility)
	p.rng = k.Stream(p.router.ID(), sim.PurposePeer)
	p.datagram = transport.NewDatagram(p.router)
	p.node = dht.NewNode(k, p.router.ID(), p.datagram)
	p.datagram.SetReceive(func(src int, payload []byte) {
		if p.node.Receive(src, payload) {
			return
		}
		p.onDatagram(src, payload)
	})
	return p
}

// ID returns the peer's network identifier.
func (p *Peer) ID() int { return p.router.ID() }

// pieceKey derives the DHT key of a swarm piece.
func pieceKey(swarm string, piece int) dht.Key {
	return dht.KeyOf([]byte(fmt.Sprintf("%s/%d", swarm, piece)))
}

// Seed initializes the peer with all pieces and publishes holder pointers
// into the DHT.
func (p *Peer) Seed(swarm string, nPieces, pieceSize int) {
	p.initSwarm(swarm, nPieces, pieceSize)
	p.have.SetAll()
	p.done = true
	for i := 0; i < nPieces; i++ {
		holder := binary.BigEndian.AppendUint32(nil, uint32(p.ID()))
		p.node.Store(pieceKey(swarm, i), holder)
	}
}

// Fetch initializes the peer as a downloader.
func (p *Peer) Fetch(swarm string, nPieces, pieceSize int) {
	p.initSwarm(swarm, nPieces, pieceSize)
}

func (p *Peer) initSwarm(swarm string, nPieces, pieceSize int) {
	p.swarm = swarm
	p.nPieces = nPieces
	p.pieceSize = pieceSize
	p.have = bitmap.New(nPieces)
}

// Join bootstraps the peer's DHT membership.
func (p *Peer) Join(bootstrap int) { p.node.Join(bootstrap) }

// Done reports completion and its virtual time.
func (p *Peer) Done() (bool, time.Duration) { return p.done, p.doneAt }

// Start activates routing and the fetch loop.
func (p *Peer) Start() {
	if p.running {
		return
	}
	p.running = true
	p.router.Start()
	p.pumpT.Reset(p.rng.Jitter(pumpPeriod))
}

func (p *Peer) pumpTick() {
	if !p.running {
		return
	}
	p.pumpCount++
	// Periodic overlay maintenance: re-announce to a random contact so
	// views converge toward full membership (Pastry's leaf-set exchange).
	if p.pumpCount%8 == 0 {
		if contacts := p.node.Contacts(); len(contacts) > 0 {
			p.node.Join(contacts[p.rng.Intn(len(contacts))])
		}
	}
	p.pump()
	p.pumpT.Reset(pumpPeriod + p.rng.Jitter(pumpPeriod/4))
}

// pump keeps pipeline pieces in flight: DHT lookup, then datagram fetch.
func (p *Peer) pump() {
	if !p.running || p.done || p.have == nil {
		return
	}
	now := p.k.Now()
	for i := 0; i < p.nPieces && len(p.pending) < pipeline; i++ {
		if p.have.Test(i) {
			continue
		}
		if _, busy := p.pending[i]; busy {
			continue
		}
		if until, cooling := p.cooldown[i]; cooling && now < until {
			continue
		}
		p.beginPiece(i)
	}
}

func (p *Peer) beginPiece(piece int) {
	var st *pieceState
	if n := len(p.piecePool); n > 0 {
		st = p.piecePool[n-1]
		p.piecePool[n-1] = nil
		p.piecePool = p.piecePool[:n-1]
	} else {
		st = &pieceState{p: p}
		st.t = p.k.NewTimer(st.timeout)
	}
	st.piece, st.holder, st.retries = piece, -1, 0
	st.gen++
	gen := st.gen
	p.pending[piece] = st
	p.stats.Lookups++
	p.node.Lookup(pieceKey(p.swarm, piece), func(value []byte, _ int, ok bool) {
		if p.pending[piece] != st || st.gen != gen {
			return
		}
		if !ok || len(value) < 4 {
			p.stats.LookupFailures++
			p.releasePiece(st)
			p.coolDown(piece)
			return // retried after the cooldown
		}
		st.holder = int(binary.BigEndian.Uint32(value))
		p.sendGet(st)
	})
}

// releasePiece abandons an attempt and recycles its record.
func (p *Peer) releasePiece(st *pieceState) {
	st.t.Stop()
	delete(p.pending, st.piece)
	p.piecePool = append(p.piecePool, st)
}

func (p *Peer) sendGet(st *pieceState) {
	get := []byte{msgGet}
	get = binary.BigEndian.AppendUint32(get, uint32(st.piece))
	p.stats.GetsSent++
	p.datagram.Send(st.holder, get)
	st.t.Reset(getTimeout)
}

// timeout re-arms (or abandons) an unanswered GET.
func (st *pieceState) timeout() {
	p := st.p
	if p.pending[st.piece] != st || p.have.Test(st.piece) {
		return
	}
	st.retries++
	if st.retries > maxGetRetries {
		// Holder unreachable: drop the stale route and retry via a
		// fresh lookup after the cooldown.
		p.router.InvalidateRoute(st.holder)
		piece := st.piece
		p.releasePiece(st)
		p.coolDown(piece)
		p.pump()
		return
	}
	if st.retries%2 == 0 {
		// Mobility breaks cached source routes quickly; dropping the
		// route forces rediscovery on the next attempt, standing in for
		// DSR's route-error maintenance.
		p.router.InvalidateRoute(st.holder)
	}
	p.stats.GetRetries++
	p.sendGet(st)
}

// coolDown defers re-attempts of a failed piece, with jitter so peers do not
// resynchronize their retries.
func (p *Peer) coolDown(piece int) {
	p.cooldown[piece] = p.k.Now() + failureCooldown + p.rng.Jitter(failureCooldown/2)
}

func (p *Peer) onDatagram(src int, payload []byte) {
	if !p.running || len(payload) < 5 {
		return
	}
	switch payload[0] {
	case msgGet:
		piece := int(binary.BigEndian.Uint32(payload[1:5]))
		if p.have == nil || piece < 0 || piece >= p.nPieces || !p.have.Test(piece) {
			return
		}
		// Send copies the payload (DSR encodes it into its wire or buffers
		// a copy), so one scratch response serves every request; its piece
		// bytes are never written.
		if len(p.resp) != 5+p.pieceSize {
			p.resp = make([]byte, 5+p.pieceSize)
		}
		p.resp[0] = msgPiece
		binary.BigEndian.PutUint32(p.resp[1:], uint32(piece))
		p.stats.PiecesSent++
		p.datagram.Send(src, p.resp)
	case msgPiece:
		piece := int(binary.BigEndian.Uint32(payload[1:5]))
		if p.have == nil || piece < 0 || piece >= p.nPieces || p.have.Test(piece) {
			return
		}
		p.have.Set(piece)
		p.stats.PiecesReceived++
		if st, ok := p.pending[piece]; ok {
			p.releasePiece(st)
		}
		// Ekta peers become additional holders; publish so later lookups
		// can find a closer copy.
		holder := binary.BigEndian.AppendUint32(nil, uint32(p.ID()))
		p.node.Store(pieceKey(p.swarm, piece), holder)
		if p.have.Full() && !p.done {
			p.done = true
			p.doneAt = p.k.Now()
			//lint:ignore maporder free-list refill on completion; recycled records are reset before reuse, so pool order never reaches the trace
			for _, st := range p.pending {
				st.t.Stop()
				p.piecePool = append(p.piecePool, st)
			}
			p.pending = make(map[int]*pieceState)
			return
		}
		p.pump()
	}
}
