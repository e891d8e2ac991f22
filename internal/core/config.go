// Package core implements the DAPES peer: discovery with adaptive beaconing
// (Section IV-B), secure metadata initialization (IV-C), bitmap data
// advertisements with transmission prioritization and PEBA collision
// mitigation (IV-D, IV-F), rarest-piece-first data fetching (IV-E), and the
// adaptive multi-hop Interest forwarding/suppression of Section V.
package core

import (
	"time"

	"dapes/internal/multihop"
	"dapes/internal/peba"
)

// AdvertMode selects how bitmap exchanges interleave with data fetching
// (Section IV-D "Encounters among multiple peers").
type AdvertMode int

// Advertisement exchange modes.
const (
	// Interleaved starts fetching data as soon as the first advertisement
	// arrives, collecting further bitmaps concurrently. The paper finds this
	// 16-23% faster (Fig. 9d).
	Interleaved AdvertMode = iota + 1
	// BitmapsFirst waits for BitmapsBefore advertisements (or session
	// quiescence when 0 = "all") before any data Interest (Fig. 9c).
	BitmapsFirst
)

// StrategyKind selects the RPF variant (Section IV-E).
type StrategyKind int

// RPF strategy kinds.
const (
	LocalNeighborhoodRPF StrategyKind = iota + 1
	EncounterBasedRPF
)

// Config parameterizes a DAPES peer. The zero value is completed with the
// paper's experimental settings by withDefaults.
type Config struct {
	// TransmissionWindow is the random-timer window for every transmission
	// other than prioritized bitmaps. Paper: 20 ms.
	TransmissionWindow time.Duration

	// BeaconPeriodMin/Max bound the adaptive discovery-Interest period:
	// the period halves toward Min after encounters and doubles toward Max
	// in isolation (Section IV-B).
	BeaconPeriodMin time.Duration
	BeaconPeriodMax time.Duration

	// NeighborTTL expires a neighbor that has not been heard.
	NeighborTTL time.Duration

	// AdvertMode and BitmapsBefore configure the bitmap exchange strategy.
	// BitmapsBefore = 0 means "all peers in range" (session quiescence).
	AdvertMode    AdvertMode
	BitmapsBefore int

	// Strategy selects the RPF flavor; RandomStart enables random-packet
	// start; EncounterHistory bounds the encounter-based strategy's memory.
	Strategy         StrategyKind
	RandomStart      bool
	EncounterHistory int

	// UsePEBA enables the priority-based exponential backoff for bitmap
	// transmissions; when false, the linear window-division scheme is used
	// (the paper's "w/o PEBA" ablation).
	UsePEBA bool
	// Peba parameterizes the backoff.
	Peba peba.Config

	// Multihop enables intermediate-node forwarding (Section V).
	Multihop bool
	// ForwardProb is the probability that an Interest with no known
	// availability is forwarded (paper default 20%).
	ForwardProb float64
	// SuppressTTL is the suppression-timer length after an unanswered
	// forwarded Interest.
	SuppressTTL time.Duration

	// InterestTimeout bounds an outstanding data Interest before
	// reselection.
	InterestTimeout time.Duration
	// Pipeline is the number of concurrently outstanding data Interests.
	Pipeline int

	// MetaSegmentSize is the metadata segment payload size in bytes.
	MetaSegmentSize int

	// SessionQuiet declares an advertisement session quiescent (used for the
	// BitmapsBefore=0 "all" mode and for re-advertising).
	SessionQuiet time.Duration
	// SessionTTL resets per-encounter advertisement state (PEBA groups and
	// heard-bitmap unions are per encounter).
	SessionTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.TransmissionWindow == 0 {
		c.TransmissionWindow = 20 * time.Millisecond
	}
	if c.BeaconPeriodMin == 0 {
		c.BeaconPeriodMin = 1 * time.Second
	}
	if c.BeaconPeriodMax == 0 {
		c.BeaconPeriodMax = 8 * time.Second
	}
	if c.NeighborTTL == 0 {
		c.NeighborTTL = 3 * c.BeaconPeriodMax
	}
	if c.AdvertMode == 0 {
		c.AdvertMode = Interleaved
	}
	if c.Strategy == 0 {
		c.Strategy = LocalNeighborhoodRPF
	}
	if c.EncounterHistory == 0 {
		c.EncounterHistory = 32
	}
	if c.ForwardProb == 0 {
		c.ForwardProb = 0.2
	}
	if c.SuppressTTL == 0 {
		c.SuppressTTL = 2 * time.Second
	}
	if c.InterestTimeout == 0 {
		c.InterestTimeout = 500 * time.Millisecond
	}
	if c.Pipeline == 0 {
		c.Pipeline = 1
	}
	if c.MetaSegmentSize == 0 {
		c.MetaSegmentSize = 1000
	}
	if c.SessionQuiet == 0 {
		c.SessionQuiet = 250 * time.Millisecond
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 10 * time.Second
	}
	return c
}

// Stats aggregates per-peer protocol counters; the experiment harness sums
// them for the paper's overhead metric breakdown.
type Stats struct {
	DiscoveryInterestsSent uint64
	DiscoveryDataSent      uint64
	BitmapInterestsSent    uint64
	BitmapDataSent         uint64
	BitmapCollisions       uint64
	MetaInterestsSent      uint64
	MetaDataSent           uint64
	DataInterestsSent      uint64
	DataSent               uint64
	InterestTimeouts       uint64
	PacketsReceived        uint64
	PacketsOverheard       uint64
	VerifyFailures         uint64
	// Counters are the Section-V forwarding counters (InterestsForwarded,
	// InterestsSuppressed, DataForwarded, ForwardedAnswered).
	multihop.Counters
}

// TotalSent returns the peer's total protocol transmissions.
func (s Stats) TotalSent() uint64 {
	return s.DiscoveryInterestsSent + s.DiscoveryDataSent +
		s.BitmapInterestsSent + s.BitmapDataSent +
		s.MetaInterestsSent + s.MetaDataSent +
		s.DataInterestsSent + s.DataSent +
		s.InterestsForwarded + s.DataForwarded
}
