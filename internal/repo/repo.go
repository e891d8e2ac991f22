// Package repo implements the stationary data repository of the paper's
// use-case (Section II-C, Fig. 2, Fig. 8b): a fixed node deployed at a
// gathering point (e.g. a rest area) that collects file collections from
// passing peers and serves them to others, enhancing data availability.
//
// A repository is a DAPES peer with stationary mobility that subscribes to a
// set of collection prefixes; once a collection completes it keeps serving
// it indefinitely.
package repo

import (
	"time"

	"dapes/internal/core"
	"dapes/internal/geo"
	"dapes/internal/keys"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// Repo is a stationary collect-and-serve node.
type Repo struct {
	peer     *core.Peer
	prefixes []ndn.Name
}

// New deploys a repository at the given position. Any collection matching
// one of the prefixes is collected and re-served.
func New(k *sim.Kernel, medium *phy.Medium, at geo.Point, key *keys.Key, trust *keys.TrustStore, cfg core.Config, prefixes ...ndn.Name) *Repo {
	r := &Repo{
		peer: core.NewPeer(k, medium, geo.Stationary{At: at}, key, trust, cfg),
	}
	for _, p := range prefixes {
		r.prefixes = append(r.prefixes, p.Clone())
		r.peer.Subscribe(p)
	}
	return r
}

// Peer exposes the underlying DAPES peer (for stats and callbacks).
func (r *Repo) Peer() *core.Peer { return r.peer }

// Start activates the repository.
func (r *Repo) Start() { r.peer.Start() }

// Collected reports whether the repository holds the full collection, and
// when it finished collecting it.
func (r *Repo) Collected(collection ndn.Name) (bool, time.Duration) {
	return r.peer.Done(collection)
}

// Progress reports packets collected over total for a collection.
func (r *Repo) Progress(collection ndn.Name) (have, total int) {
	return r.peer.Progress(collection)
}
