// Fixture for the simclock analyzer, type-checked as a virtual package ON
// the simulation-path list. Every wall-clock read, global-RNG call and
// privately seeded generator must be flagged; draws from a sim.Stream, a
// *rand.Rand over one, and pure time arithmetic must not.
package fixture

import (
	"math/rand"
	"time"

	"dapes/internal/sim"
)

func violations(ch chan time.Time) {
	_ = time.Now()               // want `wall clock on a simulation path: time\.Now`
	time.Sleep(time.Millisecond) // want `wall clock on a simulation path: time\.Sleep`
	_ = time.Since(time.Time{})  // want `wall clock on a simulation path: time\.Since`
	_ = time.After(time.Second)  // want `wall clock on a simulation path: time\.After`
	later := time.AfterFunc      // want `wall clock on a simulation path: time\.AfterFunc`
	_ = later

	_ = rand.Intn(10)    // want `global math/rand source on a simulation path: rand\.Intn`
	_ = rand.Float64()   // want `global math/rand source on a simulation path: rand\.Float64`
	rand.Shuffle(0, nil) // want `global math/rand source on a simulation path: rand\.Shuffle`
}

// sideGenerators are sequences that do not derive from (trial seed, node,
// purpose): a source seeded on the spot, and a *rand.Rand over anything but
// a sim.Stream — however the source got there.
func sideGenerators(seed int64, src rand.Source) {
	_ = rand.NewSource(seed)           // want `privately seeded generator on a simulation path: rand\.NewSource`
	_ = rand.New(rand.NewSource(seed)) // want `privately seeded generator on a simulation path: rand\.New` `privately seeded generator on a simulation path: rand\.NewSource`
	_ = rand.New(src)                  // want `privately seeded generator on a simulation path: rand\.New`
	build := rand.New                  // want `privately seeded generator on a simulation path: rand\.New`
	_ = build
}

// legitimate shows the allowed shapes: draws from a derived sim.Stream, a
// *rand.Rand wrapped around one for the methods a Stream lacks, and pure
// time-type arithmetic (no clock read).
func legitimate(k *sim.Kernel, node int) time.Duration {
	rng := k.Stream(node, sim.PurposePeer)
	buf := make([]byte, 8)
	rand.New(&rng).Read(buf)
	return time.Duration(rng.Intn(100))*time.Millisecond + rng.Jitter(time.Second)
}

// suppressed shows the escape hatch: intentional wall-clock use with a
// justified //lint:ignore on the line above.
func suppressed() int64 {
	//lint:ignore simclock demo-only seed; never reached from a registered scenario
	return time.Now().UnixNano()
}
