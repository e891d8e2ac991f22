package experiment

import (
	"bytes"
	"encoding/binary"
	"fmt"

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
// every node slot, in attach order. Protocol stacks are attached by the
// per-system trial runners, so DAPES and the baselines ride identical node
// motion.
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

// drawPlacement draws one trial's node motion from seed: each walker's start
// and legs come from its own node's sim.PurposeMobility stream — the node
// being its slot in attach order, which is the radio ID every world gives it
// — so where a node walks depends on the trial and the node alone, not on
// the node mix around it or on anything the protocols draw.
func drawPlacement(s Scale, seed int64) placement {
	side := s.AreaSide
	if side <= 0 {
		side = areaSide
	}
	area := geo.Rect{Width: side, Height: side}
	// Repositories sit at the quadrant centers, as in the Fig. 7 snapshot.
	stationary := []geo.Point{
		{X: side / 4, Y: side / 4}, {X: 3 * side / 4, Y: side / 4},
		{X: side / 4, Y: 3 * side / 4}, {X: 3 * side / 4, Y: 3 * side / 4},
	}
	if s.Stationary < len(stationary) {
		stationary = stationary[:s.Stationary]
	}
	// One allocation holds every walker's stream and one every walker: at
	// 50k nodes an object per node shows.
	walkers := 1 + s.MobileDown + s.PureForwarders + s.Intermediates
	streams := make([]sim.Stream, walkers)
	walks := make([]geo.RandomDirection, walkers)
	node, walker := 0, 0
	walk := func() geo.Mobility {
		rng, w := &streams[walker], &walks[walker]
		*rng = sim.NewStream(seed, node, sim.PurposeMobility)
		node, walker = node+1, walker+1
		w.Init(geo.RandomDirectionConfig{
			Area:  area,
			Start: geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
			RNG:   rng,
		})
		return w
	}

	pl := placement{producerMobility: walk(), stationaryPos: stationary}
	node += len(stationary)
	pl.downloaderMobility = make([]geo.Mobility, s.MobileDown)
	for i := range pl.downloaderMobility {
		pl.downloaderMobility[i] = walk()
	}
	pl.forwarderMobility = make([]geo.Mobility, s.PureForwarders+s.Intermediates)
	for i := range pl.forwarderMobility {
		pl.forwarderMobility[i] = walk()
	}
	return pl
}

// newFig7World draws trial's placement and builds the engine under it from
// the scale.
func newFig7World(s Scale, wifiRange float64, trial int) (*world, placement) {
	seed := TrialSeed(s.BaseSeed, trial)
	pl := drawPlacement(s, seed)
	return newWorld(seed, phy.Config{Range: wifiRange, LossRate: s.LossRate}, s.Engine, s.Horizon), pl
}

// buildCollection generates the image-file workload: NumFiles files of
// PacketsPerFile packets with pseudo-random (incompressible) content.
func buildCollection(s Scale, seed int64) (*metadata.BuildResult, error) {
	fill := contentFill{stream: sim.NewStream(seed, 0, sim.PurposeContent)}
	files := make([]metadata.File, s.NumFiles)
	for i := range files {
		content := make([]byte, s.PacketsPerFile*s.PacketSize)
		fill.read(content)
		files[i] = metadata.File{
			Name:    fmt.Sprintf("image-%03d", i),
			Content: content,
		}
	}
	collection := ndn.ParseName(fmt.Sprintf("/field-report-%d", 1533783192+seed))
	return metadata.BuildCollection(collection, files, s.PacketSize, metadata.FormatPacketDigest, nil)
}

// contentFill fills buffers from a stream as math/rand's Read does, so the
// content is byte for byte what it has always been: seven bytes per Int63,
// low byte first, and a draw's unused bytes open the next buffer.
type contentFill struct {
	stream sim.Stream
	val    uint64 // the last draw's unused bytes, next one lowest
	left   int    // how many there are
}

func (f *contentFill) read(p []byte) {
	for len(p) > 0 {
		if f.left == 0 {
			if len(p) >= 8 {
				// A whole draw in one store: the next byte written
				// overwrites its eighth.
				binary.LittleEndian.PutUint64(p, uint64(f.stream.Int63()))
				p = p[7:]
				continue
			}
			f.val, f.left = uint64(f.stream.Int63()), 7
		}
		p[0] = byte(f.val)
		f.val >>= 8
		f.left--
		p = p[1:]
	}
}

// smallCollection builds a trivially small collection for scenario tests.
func smallCollection(name string, nPackets, packetSize int) (*metadata.BuildResult, error) {
	return metadata.BuildCollection(
		ndn.ParseName(name),
		[]metadata.File{{Name: "payload", Content: bytes.Repeat([]byte{0x5A}, nPackets*packetSize)}},
		packetSize, metadata.FormatPacketDigest, nil)
}
