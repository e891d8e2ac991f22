// Fixture for the wireimmut analyzer, exercising both halves of the
// zero-copy contract against the real dapes/internal/ndn package: writes
// through frame views, and field mutation while a wire form is cached.
package fixture

import "dapes/internal/ndn"

// viewWrites mutates the shared frame through every view shape.
func viewWrites(wire []byte) {
	d := ndn.NewPacket(wire).Data()
	d.Content[0] = 0xFF // want `write through d\.Content: it is a read-only view`
	c := d.Content
	c[1] = 0                 // want `write through c: it is a read-only view`
	copy(d.SigValue, wire)   // want `copy into d\.SigValue: it is a read-only view`
	_ = append(d.Content, 1) // want `append to d\.Content: it can write into the shared wire frame`

	w := d.Encode()
	w[0] = 0x06 // want `write through w: it is a read-only view`
}

// staleWire mutates a field after Encode cached the wire form.
func staleWire(d *ndn.Data) {
	_ = d.Encode()
	d.Freshness = 0 // want `field write d\.Freshness after the packet's wire form was cached`
}

// decodedWrite mutates a field of a shared decoded packet.
func decodedWrite(p *ndn.Packet) {
	it := p.Interest()
	it.HopLimit = 3 // want `field write it\.HopLimit after the packet's wire form was cached`
}

// invalidatedWrite is the legitimate mutation path: drop the cache first.
func invalidatedWrite(d *ndn.Data) {
	_ = d.Encode()
	d.InvalidateWire()
	d.Freshness = 0
}

// freshPacket sets every field of a new packet before it is signed: no
// cache yet, no diagnostic.
func freshPacket(payload []byte) []byte {
	d := &ndn.Data{Content: payload}
	d.Freshness = 1
	d.SignDigest()
	return d.Encode()
}

// signedWrite mutates a field after SignDigest built the wire form.
func signedWrite(d *ndn.Data) []byte {
	d.SignDigest()
	d.Freshness = 0 // want `field write d\.Freshness after the packet's wire form was cached`
	return d.Encode()
}

// resigned is the legitimate way to change a signed packet: sign it again.
func resigned(d *ndn.Data) []byte {
	d.SignDigest()
	d.InvalidateWire()
	d.Freshness = 0
	d.SignDigest()
	return d.Encode()
}

// sealInPlace is the one sanctioned write next to a view, the shape of
// ndn.Data.SignDigest: fill a buffer nobody else can see yet, then publish
// views of it. Nothing is written through a view, so nothing is reported.
func sealInPlace(d *ndn.Data, sum [32]byte) {
	buf := make([]byte, 0, 34)
	buf = append(buf, 0x17, 32)
	slot := buf[len(buf):cap(buf)]
	copy(slot, sum[:])
	d.SigValue = slot
}

// suppressed shows the escape hatch for an owner that re-encodes on purpose.
func suppressed(d *ndn.Data) {
	_ = d.Encode()
	//lint:ignore wireimmut this helper owns the packet and invalidates right after
	d.Freshness = 0
	d.InvalidateWire()
}
