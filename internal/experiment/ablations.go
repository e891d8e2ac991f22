package experiment

import (
	"time"

	"dapes/internal/core"
	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/phy"
)

// This file holds ablation experiments for the design choices DESIGN.md
// calls out beyond the paper's own figures.

// MetadataSizes measures the Section IV-C trade-off: the encoded manifest
// size in bytes for the packet-digest format versus the Merkle format, for
// a collection at the given scale.
func MetadataSizes(s Scale) (digestBytes, merkleBytes int, err error) {
	res, err := buildCollection(s, s.BaseSeed)
	if err != nil {
		return 0, 0, err
	}
	digestBytes = len(res.Manifest.Encode())

	// Rebuild the same files in Merkle format.
	files := make([]metadata.File, 0, len(res.Manifest.Files))
	for i, fi := range res.Manifest.Files {
		var content []byte
		for p := 0; p < fi.PacketCount; p++ {
			g := res.Manifest.GlobalIndex(i, p)
			content = append(content, res.Packets[g].Content...)
		}
		files = append(files, metadata.File{Name: fi.Name, Content: content})
	}
	mres, err := metadata.BuildCollection(res.Manifest.Collection, files, s.PacketSize, metadata.FormatMerkle, nil)
	if err != nil {
		return 0, 0, err
	}
	merkleBytes = len(mres.Manifest.Encode())
	return digestBytes, merkleBytes, nil
}

// BeaconAblation compares the adaptive discovery period (Section IV-B)
// against a fixed minimum-period beacon for an isolated peer: the adaptive
// peer backs off toward the maximum period and sends far fewer beacons.
func BeaconAblation(duration time.Duration) (adaptiveBeacons, fixedBeacons uint64) {
	run := func(cfg core.Config) uint64 {
		w := peerWorld{world: newWorld(17, phy.Config{Range: 50}, Engine{}), cfg: cfg}
		p := w.peer(geo.Stationary{})
		p.Start()
		w.Run(duration) // cannot fail: nothing stops the kernel
		return p.Stats().DiscoveryInterestsSent
	}
	adaptive := run(core.Config{})
	// "Fixed" pins the adaptive range to a single period: the ceiling is
	// the 1 s floor.
	fixed := run(core.Config{BeaconPeriodMax: time.Second})
	return adaptive, fixed
}
