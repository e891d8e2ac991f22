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

// Config parameterizes a pure forwarder.
type Config struct {
	// ForwardProb is the probability of forwarding an Interest that misses
	// the Content Store (paper default 20%).
	ForwardProb float64
	// TransmissionWindow is the random forwarding delay bound.
	TransmissionWindow time.Duration
	// SuppressTTL is the per-name suppression timer armed when a forwarded
	// Interest brings no response.
	SuppressTTL time.Duration
	// CsCapacity bounds the Content Store.
	CsCapacity int
}

func (c Config) withDefaults() Config {
	if c.ForwardProb == 0 {
		c.ForwardProb = 0.2
	}
	if c.TransmissionWindow == 0 {
		c.TransmissionWindow = 20 * time.Millisecond
	}
	if c.SuppressTTL == 0 {
		c.SuppressTTL = 2 * time.Second
	}
	if c.CsCapacity == 0 {
		c.CsCapacity = 4096
	}
	return c
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
	cs    *nfd.ContentStore
	relay Relay // also the node's kernel, radio and running state
	stats Stats
}

// NewPureForwarder attaches a pure forwarder to the medium.
func NewPureForwarder(k *sim.Kernel, medium *phy.Medium, mobility geo.Mobility, cfg Config) *PureForwarder {
	f := &PureForwarder{cfg: cfg.withDefaults()}
	// The store shares the kernel clock so NDN freshness works here too: a
	// MustBeFresh Interest is never answered from a cache entry whose
	// FreshnessPeriod has lapsed (DAPES traffic never sets MustBeFresh, so
	// simulation traces are unchanged — this matters for NDN-correct
	// behavior when pure forwarders carry third-party traffic).
	f.cs = nfd.NewContentStoreWithClock(f.cfg.CsCapacity, nfd.KernelClock{K: k})
	radio := medium.Attach(mobility)
	f.relay = NewRelay(k, medium, radio, f.cfg.TransmissionWindow, f.cfg.SuppressTTL, &f.stats.Counters)
	radio.SetHandler(func(fr phy.Frame) { f.relay.Deliver(fr, f.onInterest, f.onData) })
	return f
}

// ID returns the node's radio ID.
func (f *PureForwarder) ID() int { return f.relay.radio.ID() }

// Stats returns a copy of the counters.
func (f *PureForwarder) Stats() Stats { return f.stats }

// CsLen returns the number of cached packets.
func (f *PureForwarder) CsLen() int { return f.cs.Len() }

// Start activates the node. It arms nothing: an idle forwarder leaves the
// kernel empty.
func (f *PureForwarder) Start() { f.relay.Start() }

// Stop deactivates the node: pending cache replies are cancelled, and
// forwards already queued for their slot fire as no-ops.
func (f *PureForwarder) Stop() { f.relay.Stop() }

func (f *PureForwarder) onInterest(_ int, in *ndn.Interest) {
	f.stats.InterestsHeard++

	// Satisfy from cache: overheard transmissions serve future requests. The
	// CS holds each packet's original wire, so the reply re-emits the cached
	// frame without a re-encode.
	if cached := f.cs.Find(in); cached != nil {
		f.relay.ScheduleReply(cached, &f.stats.CsReplies)
		return
	}
	if f.relay.Suppressed(in) || f.relay.InFlight(in) {
		return
	}
	if f.relay.rng.Float64() >= f.cfg.ForwardProb {
		f.stats.InterestsSuppressed++
		return
	}
	f.relay.Forward(in)
}

func (f *PureForwarder) onData(_ int, d *ndn.Data) {
	// Cache every overheard transmission (Section V-A).
	f.cs.Insert(d)
	f.relay.RelayData(d)
}
