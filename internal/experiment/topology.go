package experiment

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// areaSide is the default Fig. 7 simulation area edge in meters; Scale.AreaSide
// overrides it for denser or sparser workloads.
const areaSide = 300.0

// placement is the node motion of one Fig.-7 world: a mobility model for
// every node slot.
type placement struct {
	// producerMobility carries the initial collection.
	producerMobility geo.Mobility
	// stationaryPos are the repository positions.
	stationaryPos []geo.Point
	// downloaderMobility are the mobile downloaders' walks.
	downloaderMobility []geo.Mobility
	// forwarderMobility are the 20 intermediate node walks (first half pure
	// forwarders, second half protocol-aware intermediates).
	forwarderMobility []geo.Mobility
}

// topology is one instantiated Fig.-7 world: kernel, medium, and placement.
// Protocol stacks are attached by the per-system trial runners so DAPES and
// the baselines ride identical node motion.
type topology struct {
	kernel *sim.Kernel
	medium *phy.Medium
	placement
}

// buildTopology creates the world for one trial.
func buildTopology(s Scale, wifiRange float64, trial int) *topology {
	seed := TrialSeed(s.BaseSeed, trial)
	kernel := sim.NewKernel(seed)
	medium := phy.NewMedium(kernel, phy.Config{
		Range:    wifiRange,
		LossRate: s.LossRate,
	})
	side := s.AreaSide
	if side <= 0 {
		side = areaSide
	}
	area := geo.Rect{Width: side, Height: side}
	// Placement RNG is separate from the kernel stream so event timing does
	// not perturb positions across configurations.
	prng := rand.New(rand.NewSource(seed * 31))

	walk := func() geo.Mobility {
		return geo.NewRandomDirection(geo.RandomDirectionConfig{
			Area:  area,
			Start: geo.Point{X: prng.Float64() * side, Y: prng.Float64() * side},
			RNG:   rand.New(rand.NewSource(prng.Int63())),
		})
	}

	t := &topology{kernel: kernel, medium: medium}
	t.producerMobility = walk()
	// Repositories sit at the quadrant centers, as in the Fig. 7 snapshot.
	t.stationaryPos = []geo.Point{
		{X: side / 4, Y: side / 4}, {X: 3 * side / 4, Y: side / 4},
		{X: side / 4, Y: 3 * side / 4}, {X: 3 * side / 4, Y: 3 * side / 4},
	}
	if s.Stationary < len(t.stationaryPos) {
		t.stationaryPos = t.stationaryPos[:s.Stationary]
	}
	for i := 0; i < s.MobileDown; i++ {
		t.downloaderMobility = append(t.downloaderMobility, walk())
	}
	for i := 0; i < s.PureForwarders+s.Intermediates; i++ {
		t.forwarderMobility = append(t.forwarderMobility, walk())
	}
	return t
}

// buildCollection generates the image-file workload: NumFiles files of
// PacketsPerFile packets with pseudo-random (incompressible) content.
func buildCollection(s Scale, seed int64) (*metadata.BuildResult, error) {
	rng := rand.New(rand.NewSource(seed))
	files := make([]metadata.File, s.NumFiles)
	for i := range files {
		content := make([]byte, s.PacketsPerFile*s.PacketSize)
		rng.Read(content)
		files[i] = metadata.File{
			Name:    fmt.Sprintf("image-%03d", i),
			Content: content,
		}
	}
	collection := ndn.ParseName(fmt.Sprintf("/field-report-%d", 1533783192+seed))
	return metadata.BuildCollection(collection, files, s.PacketSize, metadata.FormatPacketDigest, nil)
}

// smallCollection builds a trivially small collection for scenario tests.
func smallCollection(name string, nPackets, packetSize int) (*metadata.BuildResult, error) {
	return metadata.BuildCollection(
		ndn.ParseName(name),
		[]metadata.File{{Name: "payload", Content: bytes.Repeat([]byte{0x5A}, nPackets*packetSize)}},
		packetSize, metadata.FormatPacketDigest, nil)
}

// censor returns completion time or the horizon for incomplete downloads.
func censor(done bool, at, horizon time.Duration) time.Duration {
	if done {
		return at
	}
	return horizon
}
