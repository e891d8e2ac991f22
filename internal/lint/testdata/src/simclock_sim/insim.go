// Fixture for the simclock analyzer, type-checked as a virtual package
// under dapes/internal/sim: the package that defines the stream derivation
// is the one place on the simulation path that may build a generator — the
// wall clock and the global source stay banned there like anywhere else.
package fixture

import (
	"math/rand"
	"time"
)

func reference(seed int64) int {
	_ = time.Now()    // want `wall clock on a simulation path: time\.Now`
	_ = rand.Intn(10) // want `global math/rand source on a simulation path: rand\.Intn`
	return rand.New(rand.NewSource(seed)).Intn(10)
}
