// Package nfd holds the NDN tables of the paper's Fig. 1 as a library: the
// Content Store, the Pending Interest Table and the FIB, all on one shared
// name tree. A pure forwarder's Content Store is the part a trial runs; the
// hop-by-hop forwarding and suppression of Section V is multihop.Relay.
package nfd

import (
	"time"

	"dapes/internal/sim"
)

// Clock abstracts virtual time so the tables are reusable outside the
// discrete-event kernel.
type Clock interface {
	Now() time.Duration
	NewTimer(fn func()) *sim.Timer
}

// KernelClock adapts a sim.Kernel to the Clock interface.
type KernelClock struct {
	K *sim.Kernel
}

var _ Clock = KernelClock{}

// Now implements Clock.
func (c KernelClock) Now() time.Duration { return c.K.Now() }

// NewTimer implements Clock.
func (c KernelClock) NewTimer(fn func()) *sim.Timer { return c.K.NewTimer(fn) }

// Face names one attachment point of a node — an application, a wireless
// broadcast channel, or a point-to-point link — as a FIB next hop.
type Face struct {
	id int
}

// faceSearch returns the position of id in faces (sorted ascending by face
// ID), or the insertion point if absent. Hand-rolled so the FIB insert
// path stays closure-free.
func faceSearch(faces []*Face, id int) int {
	lo, hi := 0, len(faces)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if faces[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
