package core

import (
	"slices"
	"time"

	"dapes/internal/bitmap"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/peba"
	"dapes/internal/rpf"
	"dapes/internal/sim"
)

// neighbor tracks one peer currently (or recently) in communication range.
type neighbor struct {
	id        int
	lastHeard time.Duration
	// offers is the set of collections (by URI) the neighbor's discovery
	// replies have offered.
	offers offerSet
}

// offerSet is a set of collection URIs with room for one inline: a
// neighbour offers one collection in every catalog world, so a neighbour
// and its offer cost one object.
type offerSet struct {
	one  string   // the first URI added, "" while the set is empty
	more []string // the others
}

// has reports whether uri is in the set.
func (s *offerSet) has(uri string) bool {
	if s.one == uri && uri != "" {
		return true
	}
	return slices.Contains(s.more, uri)
}

// hasBytes is has for a URI as it arrived.
func (s *offerSet) hasBytes(uri []byte) bool {
	if s.one == string(uri) && len(uri) > 0 {
		return true
	}
	for _, o := range s.more {
		if o == string(uri) {
			return true
		}
	}
	return false
}

// add puts uri, not yet in the set, into it.
func (s *offerSet) add(uri string) {
	if s.one == "" {
		s.one = uri
	} else {
		s.more = append(s.more, uri)
	}
}

// len returns how many URIs the set holds.
func (s *offerSet) len() int {
	if s.one == "" {
		return 0
	}
	return 1 + len(s.more)
}

// advertSession is the per-encounter bitmap exchange state (Section IV-F):
// the union of previously transmitted bitmaps and the PEBA backoff. Sessions
// are reset per encounter; the pending transmission timer lives on the
// collectionState (collectionState.txT) so the reusable timer survives the
// per-encounter wipe.
type advertSession struct {
	active       bool
	heardUnion   *bitmap.Bitmap
	heardCount   int
	transmitted  bool
	lastActivity time.Duration
	backoff      *peba.Backoff
	txSeq        int
}

// collectionState is everything a peer knows about one collection.
type collectionState struct {
	collection ndn.Name
	uri        string   // collection.String(), built once: the key in Peer.collections and neighbor.offers
	metaName   ndn.Name // learned from discovery (or Publish)
	bitmapName ndn.Name // bitmapInterestName(collection): names bitmap Interests, prefixes advertisements

	// Metadata fetch progress. metaT is the segment-retry timer, created
	// lazily and re-armed for the collection's whole life; armed (Pending)
	// means a segment fetch is outstanding.
	metaSegs  map[int]*ndn.Data
	metaTotal int // -1 until the first segment reveals it
	metaT     *sim.Timer

	manifest *metadata.Manifest // nil until assembled and verified

	own     *bitmap.Bitmap
	packets map[int]*ndn.Data // global index -> verified Data

	// unverified buffers Merkle-format packets per file until the file
	// completes and can be verified as a whole (Section IV-C).
	unverified map[int]map[int]*ndn.Data // file -> pkt -> data

	strategy rpf.Strategy

	// availability: latest advertised bitmap per neighbor. union caches the
	// OR of the entries over this manifest's packets; every site that
	// mutates avail sets unionStale and availabilityUnion rebuilds in place.
	avail      map[int]*bitmap.Bitmap
	union      *bitmap.Bitmap
	unionStale bool
	// all is the all-ones availability multi-hop fetching falls back to
	// (nil without Multihop).
	all *bitmap.Bitmap

	session advertSession
	// txT arms this peer's prioritized advertisement transmission (armed =
	// a bitmap transmission is pending). One timer per collection, reused
	// across the constant cancel/reschedule churn of the PEBA exchange.
	txT *sim.Timer

	// inflight data Interests: global index -> timeout record (pooled on
	// the peer). busy is the set selectNext must pass over, kept equal to
	// keys(inflight) ∪ packets buffered in unverified at every site that
	// mutates either.
	inflight map[int]*inflightTimer
	busy     *bitmap.Bitmap
	fetching bool

	startedAt  time.Duration
	doneAt     time.Duration
	done       bool
	subscribed bool // this peer wants to download the collection
}

func newCollectionState(collection ndn.Name) *collectionState {
	return &collectionState{
		collection: collection.Clone(),
		uri:        collection.String(),
		bitmapName: bitmapInterestName(collection),
		metaSegs:   make(map[int]*ndn.Data),
		metaTotal:  -1,
		packets:    make(map[int]*ndn.Data),
		unverified: make(map[int]map[int]*ndn.Data),
		avail:      make(map[int]*bitmap.Bitmap),
		inflight:   make(map[int]*inflightTimer),
	}
}

// availabilityUnion returns the union of all live advertised bitmaps.
func (cs *collectionState) availabilityUnion() *bitmap.Bitmap {
	if cs.unionStale {
		cs.unionStale = false
		_ = cs.union.AndNot(cs.union) // zero in place
		for _, bm := range cs.avail {
			// A bitmap overheard before the manifest fixed the length may
			// have another one; Or refuses it and it contributes nothing.
			_ = cs.union.Or(bm)
		}
	}
	return cs.union
}

// release clears idx's busy bit once the packet is neither in flight nor
// buffered unverified.
func (cs *collectionState) release(idx int) {
	if _, in := cs.inflight[idx]; in {
		return
	}
	if len(cs.unverified) > 0 {
		file, pkt, _ := cs.manifest.Locate(idx)
		if _, buffered := cs.unverified[file][pkt]; buffered {
			return
		}
	}
	cs.busy.Clear(idx)
}

// complete reports whether every packet has been verified and stored.
func (cs *collectionState) complete() bool {
	return cs.manifest != nil && cs.own != nil && cs.own.Full()
}

// progress returns verified packets over total (0 when metadata is unknown).
func (cs *collectionState) progress() (have, total int) {
	if cs.manifest == nil {
		return 0, 0
	}
	return cs.own.Count(), cs.manifest.TotalPackets()
}
