// Fixture for the namekey analyzer: a map keyed by ndn.Name.String()
// rendered at the lookup is flagged — directly, in delete, and through a
// local — while rendering a name for anything else, and keying by a
// memoised or stored key, stays legal.
package fixture

import (
	"errors"
	"fmt"

	"dapes/internal/ndn"
)

type record struct {
	name ndn.Name
	key  string // name's URI, stored once when the record is created
}

type table struct {
	byName     map[string]*record
	suppressed map[string]bool
}

func (t *table) lookup(name ndn.Name) *record {
	return t.byName[name.String()] // want `map keyed by ndn\.Name\.String\(\) built at the lookup`
}

func (t *table) onData(d *ndn.Data) {
	if rec, ok := t.byName[d.Name.String()]; ok { // want `map keyed by ndn\.Name\.String\(\)`
		delete(t.suppressed, rec.name.String()) // want `map keyed by ndn\.Name\.String\(\)`
	}
}

func (t *table) onInterest(in *ndn.Interest) {
	key := in.Name.String()
	if t.suppressed[key] { // want `map keyed by ndn\.Name\.String\(\)`
		return
	}
	t.byName[key] = &record{name: in.Name} // want `map keyed by ndn\.Name\.String\(\)`
	delete(t.suppressed, key)              // want `map keyed by ndn\.Name\.String\(\)`
}

// --- legitimate shapes ---

func (t *table) memoised(in *ndn.Interest, d *ndn.Data) {
	_ = t.byName[in.NameKey()] // once per packet, shared by every receiver
	if rec, ok := t.byName[d.NameKey()]; ok {
		delete(t.suppressed, rec.key) // stored at creation
	}
}

func (t *table) stackKey(name ndn.Name) *record {
	var buf [64]byte
	return t.byName[string(name.AppendURI(buf[:0]))] // no string is built
}

func (t *table) create(name ndn.Name) *record {
	rec := &record{name: name, key: name.String()} // the one render, at creation
	t.byName[rec.key] = rec
	return rec
}

func encode(collection ndn.Name) []byte {
	uri := collection.String() // payload encoding, not a key
	return append([]byte{byte(len(uri))}, uri...)
}

func describe(name ndn.Name) error {
	if name.Len() == 0 {
		return errors.New("empty name " + name.String())
	}
	return fmt.Errorf("no route to %s", name.String())
}

// A map index whose key merely is a string, or a slice indexed by anything,
// is none of this analyzer's business.
func unrelated(m map[string]int, names []ndn.Name, s fmt.Stringer) int {
	return m[s.String()] + m[string(names[0].At(0))] + len(names[m["x"]].String())
}

// --- suppressed ---

func (t *table) debugDump(name ndn.Name) *record {
	//lint:ignore namekey operator-driven debug lookup, never on a per-frame path
	return t.byName[name.String()]
}
