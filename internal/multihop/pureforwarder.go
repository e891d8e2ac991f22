// Package multihop implements Section V, the adaptive hop-by-hop
// forwarding and suppression that extends DAPES across multiple wireless
// hops. Relay is the mechanism — nonce dedup, the forwarded-Interest table
// and its suppression timers, the response-suppressed reply queue — and
// every multi-hop node holds one: the DAPES-aware intermediates of Section
// V-B are ordinary core.Peer instances with Multihop enabled, which forward
// on what they know of the data around them.
//
// PureForwarder is the other node kind, one that only understands NDN
// network-layer semantics and does not run the application: it caches
// overheard Data in its Content Store, answers Interests from cache, and
// forwards the rest on a coin.
package multihop

import (
	"time"

	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/nfd"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// The Section-V timers, shared by both node kinds: TransmissionWindow bounds
// the random delay before every DAPES transmission other than a prioritized
// bitmap, and SuppressTTL is the per-name suppression timer armed when a
// forwarded Interest brings no response.
const (
	TransmissionWindow = 20 * time.Millisecond
	SuppressTTL        = 2 * time.Second
)

// csCapacity bounds a pure forwarder's Content Store.
const csCapacity = 4096

// Config parameterizes a pure forwarder.
type Config struct {
	// ForwardProb is the probability of forwarding an Interest that misses
	// the Content Store; 0 means the paper's 20%.
	ForwardProb float64
}

// Stats counts forwarder activity.
type Stats struct {
	InterestsHeard uint64
	CsReplies      uint64
	Counters
}

// PureForwarder is an NDN-only node on the broadcast medium.
type PureForwarder struct {
	cfg   Config
	cs    *nfd.ContentStore // made by the first Data heard: most forwarders hear none
	relay Relay             // also the node's kernel, radio and running state
	stats Stats
}

// NewPureForwarder attaches a pure forwarder to the medium.
func NewPureForwarder(k *sim.Kernel, medium *phy.Medium, mobility geo.Mobility, cfg Config) *PureForwarder {
	f := new(PureForwarder)
	f.attach(k, medium, mobility, cfg)
	return f
}

// NewPureForwarders attaches one pure forwarder per mobility model, in
// order, as NewPureForwarder would one at a time, and returns them in one
// slice: a world of tens of thousands of forwarders makes one object for
// them, not one each.
func NewPureForwarders(k *sim.Kernel, medium *phy.Medium, mobility []geo.Mobility, cfg Config) []PureForwarder {
	fs := make([]PureForwarder, len(mobility))
	for i, m := range mobility {
		fs[i].attach(k, medium, m, cfg)
	}
	return fs
}

// attach builds the forwarder in place at f, on a radio of its own.
func (f *PureForwarder) attach(k *sim.Kernel, medium *phy.Medium, mobility geo.Mobility, cfg Config) {
	if cfg.ForwardProb == 0 {
		cfg.ForwardProb = 0.2
	}
	f.cfg = cfg
	radio := medium.Attach(mobility)
	f.relay = NewRelay(k, medium, radio, &f.stats.Counters)
	radio.SetHandler(func(fr phy.Frame) { f.relay.Deliver(fr, f.onInterest, f.onData) })
}

// Stats returns a copy of the counters.
func (f *PureForwarder) Stats() Stats { return f.stats }

// Start activates the node. It arms nothing: an idle forwarder leaves the
// kernel empty.
func (f *PureForwarder) Start() { f.relay.Start() }

func (f *PureForwarder) onInterest(_ int, in *ndn.Interest) {
	f.stats.InterestsHeard++

	// Satisfy from cache: overheard transmissions serve future requests. The
	// CS holds each packet's original wire, so the reply re-emits the cached
	// frame without a re-encode. Before the first Data there is nothing to find.
	if f.cs != nil {
		if cached := f.cs.Find(in); cached != nil {
			f.relay.ScheduleReply(cached, &f.stats.CsReplies)
			return
		}
	}
	if suppressed, inFlight := f.relay.Check(in); suppressed || inFlight {
		return
	}
	if f.relay.rng.Float64() >= f.cfg.ForwardProb {
		f.stats.InterestsSuppressed++
		return
	}
	f.relay.Forward(in)
}

func (f *PureForwarder) onData(_ int, d *ndn.Data) {
	// Cache every overheard transmission (Section V-A). The store shares the
	// kernel clock so NDN freshness works here too: a MustBeFresh Interest is
	// never answered from a cache entry whose FreshnessPeriod has lapsed
	// (DAPES traffic never sets MustBeFresh, so simulation traces are
	// unchanged — this matters for NDN-correct behavior when pure forwarders
	// carry third-party traffic).
	if f.cs == nil {
		f.cs = nfd.NewContentStoreWithClock(csCapacity, nfd.KernelClock{K: f.relay.k})
	}
	f.cs.Insert(d)
	f.relay.RelayData(d)
}
