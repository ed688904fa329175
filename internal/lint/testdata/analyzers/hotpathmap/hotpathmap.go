// Package fixture exercises the hotpathmap analyzer: an index into a map
// keyed by adstore.AdID or feed.MessageID is reported in the read and
// delivery paths' roots and in what they call in the package; maps with
// other keys, slot tables, and lookups off the path are not.
package fixture

import (
	"fixture/hotpathmap/adstore"
	"fixture/hotpathmap/feed"
)

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

// post is a post's record: its state travels with it.
type post struct {
	id   feed.MessageID
	refs int
}

// table is per-post state kept beside the records, keyed by message ID.
type table struct {
	byMsg map[feed.MessageID]*post
	seen  map[*post]bool
}

// Deliver is a root: a table lookup per delivery is reported.
func (t *table) Deliver(p *post) {
	t.seen[p] = true
	t.byMsg[p.id].refs++ // want `t\.byMsg indexes a map keyed by feed\.MessageID on the delivery or read path \(via Deliver\)`
}

// catchUp is a root; release is one hop from it.
func (t *table) catchUp(posts []*post) {
	for _, p := range posts {
		t.release(p.id)
	}
}

func (t *table) release(id feed.MessageID) {
	if p := t.byMsg[id]; p != nil { // want `via catchUp → release`
		p.refs--
	}
}

// count is not reachable from any root: a diagnostic may read the table.
func (t *table) count(id feed.MessageID) int { return t.byMsg[id].refs }
