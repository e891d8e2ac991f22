// Fixture for the namekey analyzer off the simulation path: tooling and
// mains may key maps however they like, so nothing here is flagged.
package fixture

import "dapes/internal/ndn"

func index(names []ndn.Name) map[string]int {
	seen := map[string]int{}
	for i, n := range names {
		seen[n.String()] = i
	}
	return seen
}
