package core

import (
	"reflect"
	"strings"
	"testing"

	"dapes/internal/bitmap"
	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
)

// TestCollectionLookupsDoNotAllocate pins the string-free lookup contract:
// trial drivers poll Done after kernel events, so finding a collection's
// state by name must not build
// the key string, whether or not the peer tracks the collection. (A name
// longer than the lookup's stack buffer still resolves; it just pays for it.)
func TestCollectionLookupsDoNotAllocate(t *testing.T) {
	net := newTestNet(1, 100)
	res := testCollection(t, 1, 4, metadata.FormatPacketDigest)
	p := net.peer(geo.Point{}, Config{})
	if err := p.Publish(res); err != nil {
		t.Fatal(err)
	}
	held := res.Manifest.Collection
	unknown := ndn.ParseName("/field-report-1533783193")
	long := ndn.ParseName("/" + strings.Repeat("segment/", 12) + "collection")

	for _, name := range []ndn.Name{held, unknown} {
		if n := testing.AllocsPerRun(1000, func() { p.Done(name) }); n != 0 {
			t.Errorf("Done(%s): %v allocs, want 0", name, n)
		}
		if n := testing.AllocsPerRun(1000, func() { p.find(name) }); n != 0 {
			t.Errorf("find(%s): %v allocs, want 0", name, n)
		}
	}
	if p.find(held) == nil || p.find(unknown) != nil || p.find(long) != nil {
		t.Fatal("lookups found the wrong state")
	}
	if done, _ := p.Done(held); !done {
		t.Fatal("publisher not done with its own collection")
	}
}

// TestWantsIsComponentWise: subscriptions are stored and matched as URIs, and
// the match must still be NDN's component-wise prefix, not a byte prefix.
func TestWantsIsComponentWise(t *testing.T) {
	t.Parallel()
	net := newTestNet(1, 100)
	p := net.peer(geo.Point{}, Config{})
	p.Subscribe(ndn.ParseName("/reports/2020"))
	for uri, want := range map[string]bool{
		"/reports/2020":       true,
		"/reports/2020/march": true,
		"/reports/2020march":  false,
		"/reports/202":        false,
		"/reports":            false,
		"/":                   false,
	} {
		if got := p.wants([]byte(uri)); got != want {
			t.Errorf("wants(%s) = %v, want %v", uri, got, want)
		}
	}
	all := net.peer(geo.Point{X: 1}, Config{})
	all.Subscribe(ndn.Name{})
	if !all.wants([]byte("/anything")) || !all.wants([]byte("/")) {
		t.Error("root subscription does not match everything")
	}
}

// TestPayloadsRejectNonCanonicalURIs: receivers index their tables with the
// URI bytes a payload carries, so any spelling other than Name.String's is
// malformed rather than silently a different key.
func TestPayloadsRejectNonCanonicalURIs(t *testing.T) {
	t.Parallel()
	for _, uri := range []string{"", "coll", "/coll/", "//coll", "/a//b"} {
		if _, err := decodeBitmapPayload(appendBitmapPayload(nil, uri, 1, bitmap.New(8))); err == nil {
			t.Errorf("bitmap payload accepted collection URI %q", uri)
		}
		if _, err := decodeDiscoveryPayload(nil, rawDiscoveryPayload(uri)); err == nil {
			t.Errorf("discovery payload accepted metadata URI %q", uri)
		}
	}
	for uri, want := range map[string]string{
		"/coll/metadata-file/1a2b":     "/coll",
		"/a/b/metadata-file/1a2b":      "/a/b",
		"/metadata-file/1a2b":          "",
		"/1a2b":                        "",
		"/":                            "",
		"/coll/metadata-file/1a2b/seg": "/coll/metadata-file",
	} {
		got, ok := collectionOfMetadataURI([]byte(uri))
		if string(got) != want || ok != (want != "") {
			t.Errorf("collectionOfMetadataURI(%s) = %q, %v; want %q", uri, got, ok, want)
		}
	}
}

// TestBitmapHeardDoesNotAllocate: every peer in range decodes its own copy of
// an advertisement, so hearing a known neighbour advertise again — in either
// form, the bitmap Interest's parameters or the bitmap Data's content — must
// decode into the bitmap already held for it and cost no object, in the
// collection's own state and in the overheard state of a collection the peer
// has no manifest for.
func TestBitmapHeardDoesNotAllocate(t *testing.T) {
	net := newTestNet(1, 100)
	res := testCollection(t, 2, 40, metadata.FormatPacketDigest)
	p := net.peer(geo.Point{}, Config{Multihop: true})
	if err := p.Publish(res); err != nil {
		t.Fatal(err)
	}
	p.Start()
	theirs := bitmap.New(res.Manifest.TotalPackets())
	theirs.Set(3)
	for _, uri := range []string{p.collections["/coll-123"].uri, "/someone-elses"} {
		advertise := func(set int) (*ndn.Interest, *ndn.Data) {
			theirs.Set(set)
			in := &ndn.Interest{Name: bitmapInterestName(ndn.ParseName(uri)), AppParams: appendBitmapPayload(nil, uri, 7, theirs)}
			d := &ndn.Data{Name: appendBitmapDataName(nil, in.Name, 7, set), Content: appendBitmapPayload(nil, uri, 7, theirs)}
			d.SignDigest()
			return ndn.NewPacket(in.Encode()).Interest(), ndn.NewPacket(d.Encode()).Data()
		}
		in, d := advertise(5)
		p.handleBitmapInterest(in) // first hearing: neighbour, entry, session, timer
		p.handleBitmapData(d)
		in, d = advertise(9)
		if n := testing.AllocsPerRun(100, func() { p.handleBitmapInterest(in) }); n != 0 {
			t.Errorf("%s: bitmap Interest from a known neighbour: %v allocs, want 0", uri, n)
		}
		if n := testing.AllocsPerRun(100, func() { p.handleBitmapData(d) }); n != 0 {
			t.Errorf("%s: bitmap Data from a known neighbour: %v allocs, want 0", uri, n)
		}
		if got := p.collections[uri].avail[7]; !reflect.DeepEqual(got, theirs) {
			t.Errorf("%s: avail[7] = %v, advertised %v", uri, got, theirs)
		}
	}
}
