// Package core implements the DAPES peer: discovery with adaptive beaconing
// (Section IV-B), secure metadata initialization (IV-C), bitmap data
// advertisements with transmission prioritization and PEBA collision
// mitigation (IV-D, IV-F), rarest-piece-first data fetching (IV-E), and the
// adaptive multi-hop Interest forwarding/suppression of Section V.
package core

import (
	"time"

	"dapes/internal/multihop"
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

// The timers and sizes Section VI-B holds fixed. The random-timer window of
// every transmission other than a prioritized bitmap, and the suppression
// timer, are multihop's TransmissionWindow and SuppressTTL.
const (
	// beaconPeriodMin is the floor the adaptive discovery-Interest period
	// halves toward after encounters (Section IV-B).
	beaconPeriodMin = time.Second
	// beaconPeriodMax is the ceiling the period doubles toward in
	// isolation (Section IV-B).
	beaconPeriodMax = 8 * time.Second
	// neighborTTL expires a neighbor not heard for three beacon ceilings.
	neighborTTL = 3 * beaconPeriodMax
	// encounterHistory bounds the encounter-based strategy's memory.
	encounterHistory = 32
	// interestTimeout bounds an outstanding data Interest before
	// reselection.
	interestTimeout = 500 * time.Millisecond
	// pipeline is the number of concurrently outstanding data Interests.
	pipeline = 1
	// metaSegmentSize is the metadata segment payload size in bytes.
	metaSegmentSize = 1000
	// sessionQuiet declares an advertisement session quiescent (used for
	// the BitmapsBefore=0 "all" mode and for re-advertising).
	sessionQuiet = 250 * time.Millisecond
	// sessionTTL resets per-encounter advertisement state (PEBA groups and
	// heard-bitmap unions are per encounter).
	sessionTTL = 10 * time.Second
)

// Config selects the design variant of a DAPES peer: the choices the
// paper's evaluation varies (Figs. 9a-9h, 10). The zero value is
// local-neighborhood RPF without random start, interleaved advertisements,
// the linear window-division backoff instead of PEBA, and no multi-hop
// forwarding; experiment.PaperDefaults is the configuration Section VI-B
// describes.
type Config struct {
	// AdvertMode and BitmapsBefore configure the bitmap exchange strategy;
	// AdvertMode 0 means Interleaved. BitmapsBefore = 0 means "all peers in
	// range" (session quiescence).
	AdvertMode    AdvertMode
	BitmapsBefore int

	// Strategy selects the RPF flavor (0 means LocalNeighborhoodRPF);
	// RandomStart enables random-packet start.
	Strategy    StrategyKind
	RandomStart bool

	// UsePEBA enables the priority-based exponential backoff for bitmap
	// transmissions; when false, the linear window-division scheme is used
	// (the paper's "w/o PEBA" ablation).
	UsePEBA bool

	// Multihop enables intermediate-node forwarding (Section V).
	Multihop bool
	// ForwardProb is the probability that an Interest with no known
	// availability is forwarded; 0 means the paper's 20%.
	ForwardProb float64
}

func (c Config) withDefaults() Config {
	if c.AdvertMode == 0 {
		c.AdvertMode = Interleaved
	}
	if c.Strategy == 0 {
		c.Strategy = LocalNeighborhoodRPF
	}
	if c.ForwardProb == 0 {
		c.ForwardProb = 0.2
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
