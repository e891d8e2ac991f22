// Command reposync demonstrates the paper's Fig. 8b scenario. A stationary repository
// deployed at a rest area collects a producer's collection and keeps serving
// it after the producer leaves; two residents arriving later retrieve it
// from the repo simultaneously — and because DAPES data is broadcast, a
// single transmission often satisfies both.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"dapes/internal/core"
	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	kernel := sim.NewKernel(3)
	medium := phy.NewMedium(kernel, phy.Config{Range: 50, LossRate: 0.05})

	collection, err := metadata.BuildCollection(
		ndn.ParseName("/water-points-v2"),
		[]metadata.File{{Name: "map-tiles", Content: bytes.Repeat([]byte{7}, 12_000)}},
		1000, metadata.FormatPacketDigest, nil)
	if err != nil {
		return err
	}
	coll := collection.Manifest.Collection
	cfg := core.Config{RandomStart: true}

	// The repo at the rest area is a stationary peer subscribed to the
	// collection: it collects it and keeps serving it.
	restArea := core.NewPeer(kernel, medium, geo.Stationary{}, nil, nil, cfg)
	restArea.Subscribe(coll)

	// Producer C visits the rest area for five minutes, then leaves.
	producer := core.NewPeer(kernel, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 15}},
		{At: 5 * time.Minute, Pos: geo.Point{X: 15}},
		{At: 6 * time.Minute, Pos: geo.Point{X: 2000}},
	}), nil, nil, cfg)
	if err := producer.Publish(collection); err != nil {
		return err
	}

	// Residents A and B arrive ten minutes in — after the producer is gone —
	// and fetch from the repo at the same time.
	arrive := func(from geo.Point) geo.Mobility {
		return geo.NewScripted([]geo.Waypoint{
			{At: 0, Pos: from},
			{At: 10 * time.Minute, Pos: from},
			{At: 12 * time.Minute, Pos: geo.Point{X: 20, Y: 10}},
		})
	}
	a := core.NewPeer(kernel, medium, arrive(geo.Point{X: 3000}), nil, nil, cfg)
	b := core.NewPeer(kernel, medium, arrive(geo.Point{X: -3000}), nil, nil, cfg)
	for _, p := range []*core.Peer{a, b} {
		p.Subscribe(coll)
		p.Start()
	}
	restArea.Start()
	producer.Start()

	if ok := kernel.RunUntil(10*time.Minute, func() bool {
		done, _ := restArea.Done(coll)
		return done
	}); !ok {
		h, t := restArea.Progress(coll)
		return fmt.Errorf("repo did not collect in time: %d/%d", h, t)
	}
	_, collectedAt := restArea.Done(coll)
	fmt.Printf("repo collected the full collection at t=%v (producer leaves at 6m)\n",
		collectedAt.Round(time.Second))

	if ok := kernel.RunUntil(90*time.Minute, func() bool {
		da, _ := a.Done(coll)
		db, _ := b.Done(coll)
		return da && db
	}); !ok {
		ah, at := a.Progress(coll)
		bh, bt := b.Progress(coll)
		return fmt.Errorf("residents incomplete: A %d/%d, B %d/%d", ah, at, bh, bt)
	}
	_, atA := a.Done(coll)
	_, atB := b.Done(coll)
	fmt.Printf("residents completed at t=%v and t=%v, long after the producer left\n",
		atA.Round(time.Second), atB.Round(time.Second))
	fmt.Printf("overheard packets at A+B: %d (shared transmissions served both)\n",
		a.Stats().PacketsOverheard+b.Stats().PacketsOverheard)
	return nil
}
