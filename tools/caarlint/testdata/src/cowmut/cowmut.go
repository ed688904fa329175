// Package fixture exercises the cowmut analyzer: mutations of snapshots
// loaded from atomic.Pointer must be reported; the clone-mutate-publish
// path must not.
package fixture

import "sync/atomic"

type stat struct{ n int }

type directory struct {
	ads   map[string]int
	stats map[string]*stat
	slots []int
	count int
}

var ptr atomic.Pointer[directory]

func violating() {
	d := ptr.Load()
	d.ads["x"] = 1     // want `write to copy-on-write snapshot`
	d.count++          // want `increment of copy-on-write snapshot`
	d.slots[0] = 7     // want `write to copy-on-write snapshot`
	delete(d.ads, "x") // want `delete on map owned by a copy-on-write snapshot`
	clear(d.ads)       // want `clear on map owned by a copy-on-write snapshot`
	*d = directory{}   // want `write to copy-on-write snapshot`

	// Aliases formed by selecting into the snapshot stay tainted.
	ads := d.ads
	ads["y"] = 2 // want `write to copy-on-write snapshot`

	// Pointer values ranged out of a tainted map still point into the
	// shared snapshot.
	for _, st := range d.stats {
		st.n++ // want `increment of copy-on-write snapshot`
	}
}

func inlineLoad() {
	ptr.Load().ads["x"] = 1 // want `write to copy-on-write snapshot`
}

func conforming() *directory {
	d := ptr.Load()
	_ = d.count // reads are fine
	_ = d.ads["x"]

	// The blessed path: a value that passed through a call is a private
	// copy, free to mutate before being published.
	cp := clone(d)
	cp.ads["x"] = 1
	cp.count++
	ptr.Store(cp)

	// Untainted locals are untouched by the analyzer.
	local := &directory{ads: map[string]int{}}
	local.ads["y"] = 2
	local.count = 9
	return local
}

func annotated() {
	d := ptr.Load()
	d.count = 0 //caarlint:allow cowmut fixture demonstrates an explained exception
}

func directiveHygiene() {
	d := ptr.Load()
	_ = d
	//caarlint:allow cowmut // want `caarlint:allow without a reason`
	//caarlint:allow cowmut nothing to suppress here // want `stale caarlint:allow directive`
}

func clone(d *directory) *directory {
	cp := &directory{ads: make(map[string]int, len(d.ads)), count: d.count}
	for k, v := range d.ads {
		cp.ads[k] = v
	}
	return cp
}

// layered is the shape of the engine's two-layer copy-on-write map: both
// layers are shared between published versions, so a write through either
// one — reached from a loaded snapshot — is a write into every version.
type layered struct {
	base  map[string]int
	delta map[string]int
}

// with returns a new version; the receiver is the caller's private copy.
func (m layered) with(k string, v int) layered {
	delta := make(map[string]int, len(m.delta)+1)
	for dk, dv := range m.delta {
		delta[dk] = dv
	}
	delta[k] = v
	m.delta = delta
	return m
}

func (m layered) without(k string) layered { return m.with(k, -1) }

type layeredDir struct {
	users layered
	names []string
}

var layeredPtr atomic.Pointer[layeredDir]

func layeredViolating() {
	d := layeredPtr.Load()
	d.users.base["x"] = 1               // want `write to copy-on-write snapshot`
	d.users.delta["x"] = 1              // want `write to copy-on-write snapshot`
	delete(d.users.delta, "x")          // want `delete on map owned by a copy-on-write snapshot`
	layeredPtr.Load().users.base["y"]++ // want `increment of copy-on-write snapshot`

	// A copy of the map value still holds the shared layers.
	users := d.users
	users.base["z"] = 2          // want `write to copy-on-write snapshot`
	d.users = users.with("z", 2) // want `write to copy-on-write snapshot`
}

func layeredConforming() {
	d := layeredPtr.Load()
	_ = d.users.base["x"]

	// The blessed path: with/without return a private version, which goes
	// into a fresh directory; appending to names writes only past the len of
	// every published version.
	nd := &layeredDir{users: d.users.with("x", 1), names: append(d.names, "x")}
	nd.users = nd.users.without("x")
	layeredPtr.Store(nd)
}
