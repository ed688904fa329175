// Package fixture exercises the hotpathmap analyzer: an index into a map
// keyed by adstore.AdID is reported in the read path's roots and in what
// they call in the package; maps with other keys, slot tables, and lookups
// off the path are not.
package fixture

import "fixture/hotpathmap/adstore"

type ad struct{ id adstore.AdID }

// byID is a named map type: its key is still an ad ID.
type byID map[adstore.AdID]int

type engine struct {
	ads    map[adstore.AdID]*ad
	counts byID
	slots  []*ad
	names  map[string]int
}

func (e *engine) rank(id adstore.AdID, slot uint32) *ad {
	_ = e.names["x"]
	e.settle(id)
	if e.slots[slot] != nil {
		return e.slots[slot]
	}
	return e.ads[id] // want `e\.ads indexes a map keyed by adstore\.AdID on the read path \(via rank\)`
}

// settle is one hop from the root; the chain in the diagnostic names it.
func (e *engine) settle(id adstore.AdID) {
	e.counts[id]++ // want `e\.counts indexes a map keyed by adstore\.AdID on the read path \(via rank → settle\)`
	drop := func() {
		if _, ok := e.ads[id]; ok { // want `via rank → settle`
			delete(e.ads, id)
		}
	}
	drop()
}

// register is not reachable from any root: the edge keeps its map.
func (e *engine) register(a *ad) { e.ads[a.id] = a }
