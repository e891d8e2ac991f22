package repo

import (
	"bytes"
	"testing"
	"time"

	"dapes/internal/core"
	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

func TestRepoCollectsAndServes(t *testing.T) {
	t.Parallel()
	// Fig. 8b: C produces a collection near the repo; later A arrives and
	// downloads it from the repo after C has left.
	k := sim.NewKernel(31)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	res, err := metadata.BuildCollection(ndn.ParseName("/repo-coll"),
		[]metadata.File{{Name: "f", Content: bytes.Repeat([]byte{1}, 800)}},
		100, metadata.FormatPacketDigest, nil)
	if err != nil {
		t.Fatal(err)
	}

	r := New(k, medium, geo.Point{X: 0}, nil, nil, core.Config{}, ndn.ParseName("/repo-coll"))
	// Producer C: near the repo until t=120s, then gone.
	producer := core.NewPeer(k, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 20}},
		{At: 120 * time.Second, Pos: geo.Point{X: 20}},
		{At: 125 * time.Second, Pos: geo.Point{X: 900}},
	}), nil, nil, core.Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	// Peer A arrives near the repo at t=200s, after C has left.
	a := core.NewPeer(k, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: -900}},
		{At: 200 * time.Second, Pos: geo.Point{X: -20}},
	}), nil, nil, core.Config{})
	a.Subscribe(ndn.ParseName("/repo-coll"))

	r.Start()
	producer.Start()
	a.Start()

	collected := k.RunUntil(3*time.Minute, func() bool {
		ok, _ := r.Collected(res.Manifest.Collection)
		return ok
	})
	if !collected {
		h, tot := r.Progress(res.Manifest.Collection)
		t.Fatalf("repo did not collect: %d/%d", h, tot)
	}
	done := k.RunUntil(20*time.Minute, func() bool {
		ok, _ := a.Done(res.Manifest.Collection)
		return ok
	})
	if !done {
		h, tot := a.Progress(res.Manifest.Collection)
		t.Fatalf("A did not download from repo: %d/%d", h, tot)
	}
	if r.Peer().ID() == a.ID() {
		t.Fatal("id collision")
	}
}

func TestRepoStop(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(32)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	r := New(k, medium, geo.Point{}, nil, nil, core.Config{}, ndn.ParseName("/x"))
	r.Start()
	k.Run(5 * time.Second)
	before := r.Peer().Stats().DiscoveryInterestsSent
	if before == 0 {
		t.Fatal("repo sent no beacons")
	}
	r.Peer().Stop()
	k.Run(30 * time.Second)
	if got := r.Peer().Stats().DiscoveryInterestsSent; got != before {
		t.Fatal("repo kept beaconing after Stop")
	}
	if got := k.Pending(); got != 0 {
		t.Fatalf("%d events still pending 25 s after Stop", got)
	}
}
