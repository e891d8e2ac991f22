// Fixture for the unsafe analyzer outside internal/ndn: the import itself is
// the finding, whatever it is used for.
package fixture

import (
	"unsafe" // want `package unsafe outside internal/ndn`
)

func view(b []byte) string {
	return unsafe.String(&b[0], len(b))
}
