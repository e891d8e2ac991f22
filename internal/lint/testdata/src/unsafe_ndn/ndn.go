// Fixture for the unsafe analyzer inside internal/ndn, the one package whose
// decoded name views may use it: nothing here is flagged.
package fixture

import "unsafe"

func view(b []byte) string {
	return unsafe.String(&b[0], len(b))
}
