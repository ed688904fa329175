package core

import (
	"runtime"
	"slices"
	"sync"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/index"
	"caar/internal/textproc"
)

// AdIndex is the ad side of the IL and CAP engines: the keyword inverted
// index, the geographic/static pre-filter, the live-ad table the scoring paths
// read, the delta lists of fan-out sharing, and the record of ad churn the
// candidate buffers settle at their next read. The shards of one engine
// share one AdIndex. They read it under their own lock; Register and
// Unregister write it, and their caller holds every shard lock, so no reader
// runs meanwhile. The delta-list table and the free list of catch-up
// workspaces are the exceptions: shards use them concurrently, each under
// its own mutex (msgTable, spacesMu).
//
// Every ad has a slot, which the inverted index assigns, and everything on
// the ad side past registration names the ad by it: the live-ad table, the
// delta lists, the grid, the churn record, and the candidate buffers and
// views built from them. An ad's ID is read only to rank ties and to answer.
type AdIndex struct {
	inv    *index.Inverted
	geoIdx *index.GeoAds
	grid   *geo.Grid // geoIdx's, for the cell of a user
	region geo.Rect
	msgs   msgTable

	// spaces holds up to maxSpaces workspaces no catch-up is using, under
	// spacesMu. A catch-up borrows one for the call, so an engine keeps
	// about as many as it runs catch-ups at once, not one per shard.
	spacesMu  sync.Mutex
	spaces    []*workspace
	maxSpaces int

	// ads and reach are indexed by slot: the live ad (nil when the slot is
	// free or retired) and its reach, the cells whose users it can be shown
	// to — those the grid registers its target circle under, every cell for a
	// global ad. A candidate buffer holds an ad only if its reach holds the
	// user's cell. The reach is a table of its own, 8 bytes an ad, because
	// scope reads it for every delta entry of every catch-up.
	ads   []*adstore.Ad
	reach []geo.Reach

	// churn holds the slots of the last churnCap ads registered or
	// unregistered, the i-th of them (counting from 0) at churn[i%churnCap];
	// churned counts them all. Nothing per user happens at registration: a
	// buffer that accounts for fewer than churned settles the rest when it is
	// next read (CAP.catchUp), and one more than churnCap behind is rebuilt
	// instead.
	churn   [churnCap]uint32
	churned uint64

	// retired holds the slots of withdrawn ads, oldest first, each with the
	// churn count its withdrawal was recorded at. A slot is released for reuse
	// only once the churn count has moved churnCap past that, so that every
	// buffer that has not settled the withdrawal is more than churnCap behind
	// when a new ad takes the slot, and rebuilds: no buffer holds a slot under
	// two identities.
	retired []retiredSlot
}

type retiredSlot struct {
	slot uint32
	at   uint64
}

// churnCap bounds how far behind the churn record a candidate buffer can
// settle ad by ad; one further behind is rebuilt by its next read.
const churnCap = 64

// noCell is the cell of a user with no location, which only geo.Everywhere
// holds: no grid row is negative.
var noCell = geo.Reach{MinRow: -1, MaxRow: -1, MinCol: -1, MaxCol: -1}

// NewAdIndex creates an empty ad side over the given coverage region with a
// gridRows × gridCols spatial grid.
func NewAdIndex(region geo.Rect, gridRows, gridCols int) (*AdIndex, error) {
	gi, err := index.NewGeoAds(region, gridRows, gridCols)
	if err != nil {
		return nil, err
	}
	return &AdIndex{
		inv:    index.NewInverted(),
		geoIdx: gi,
		grid:   gi.Grid(),
		region: region,
		msgs:   msgTable{m: make(map[feed.MessageID]*msgCache)},
		// Two per core: a catch-up that waits for another shard to compute
		// a shared delta list holds its workspace meanwhile. On two cores,
		// a 10 s fanout_stream run made 4 307 workspaces at one per core
		// and 82 at two.
		maxSpaces: 2 * runtime.GOMAXPROCS(0),
	}, nil
}

// workspace is what a catch-up works in: the accumulator delta lists and
// window aggregates are summed in, the lists it hands dynBuf.merge, the
// arena they are scoped into, and the space merge writes to.
type workspace struct {
	acc     index.Accumulator
	lists   []weighted
	scratch []index.Delta
	arena   []index.Delta
}

// borrow takes a free workspace, or makes one; the caller gives it back.
func (x *AdIndex) borrow() *workspace {
	x.spacesMu.Lock()
	defer x.spacesMu.Unlock()
	n := len(x.spaces)
	if n == 0 {
		return new(workspace)
	}
	ws := x.spaces[n-1]
	x.spaces = x.spaces[:n-1]
	return ws
}

// giveBack returns a borrowed workspace to the free list, or drops it when
// the list is full, so that a burst of catch-ups at once — a batch's shards
// preempted mid-catch-up — does not leave a workspace per shard behind.
func (x *AdIndex) giveBack(ws *workspace) {
	x.spacesMu.Lock()
	if len(x.spaces) < x.maxSpaces {
		x.spaces = append(x.spaces, ws)
	}
	x.spacesMu.Unlock()
}

// Register indexes an ad already in the store, whose ID is not registered,
// and inserts its coefficient into every computed delta list, so the
// evictions still to come stay exact. The caller excludes every reader; each
// candidate buffer takes the ad's exact value when it is next read.
func (x *AdIndex) Register(a *adstore.Ad) {
	for len(x.retired) > 0 && x.churned-x.retired[0].at >= churnCap {
		x.inv.Release(x.retired[0].slot)
		x.retired = x.retired[1:]
	}
	slot := x.inv.Add(a.ID, a.Vec)
	if n := int(slot) + 1; n > len(x.ads) {
		x.ads = slices.Grow(x.ads, n-len(x.ads))[:n]
		x.reach = slices.Grow(x.reach, n-len(x.reach))[:n]
	}
	x.ads[slot], x.reach[slot] = a, x.geoIdx.Add(slot, a)
	x.record(slot)
	x.msgs.mu.Lock()
	defer x.msgs.mu.Unlock()
	for _, mc := range x.msgs.m {
		if !mc.computed {
			continue // it will be computed with the ad
		}
		if c := a.Vec.Dot(mc.vec); c != 0 {
			// At its sorted position, not the end: a released slot is below
			// others, and merge relies on the ascending order DeltaList gave
			// the list.
			i, _ := findDelta(mc.deltas, slot)
			mc.deltas = slices.Insert(mc.deltas, i, index.Delta{Slot: slot, Coeff: index.Pack(c)})
		}
	}
}

// Unregister drops an ad from the indexes, the table and every computed delta
// list, without touching the store, and retires its slot. The cleanup is
// eager: a stale delta entry would corrupt scores once the slot is reused.
// The caller excludes every reader; each candidate buffer drops the ad when
// it is next read, and until then ranking skips it (CAP.rank).
func (x *AdIndex) Unregister(id adstore.AdID) {
	slot, ok := x.inv.Remove(id)
	if !ok {
		return
	}
	x.geoIdx.Remove(slot, x.reach[slot])
	x.ads[slot] = nil
	x.retired = append(x.retired, retiredSlot{slot: slot, at: x.churned})
	x.record(slot)
	x.msgs.mu.Lock()
	defer x.msgs.mu.Unlock()
	for _, mc := range x.msgs.m {
		if i, ok := findDelta(mc.deltas, slot); ok {
			mc.deltas = slices.Delete(mc.deltas, i, i+1)
		}
	}
}

// record appends a slot to the churn record.
func (x *AdIndex) record(slot uint32) {
	x.churn[x.churned%churnCap] = slot
	x.churned++
}

// IndexStats reports the keyword inverted index's size: indexed ads and
// total (term, ad) postings. Callers hold a shard lock; the facade's
// observability gauges sample it at scrape time.
func (x *AdIndex) IndexStats() (ads, postings int) {
	return x.inv.Len(), x.inv.Postings()
}

// CachedMessages returns the number of messages with live shared state, on
// any shard (fan-out sharing memory diagnostic).
func (x *AdIndex) CachedMessages() int {
	x.msgs.mu.Lock()
	defer x.msgs.mu.Unlock()
	return len(x.msgs.m)
}

// msgCache is the shared state of one message under fan-out sharing: its
// delta list, computed once — by the first catch-up on any shard that needs
// it — and a count of what, on any shard, may still need that list: one
// reference per warm user's window holding the message, and one per warm user
// whose buffer still owes its subtraction.
type msgCache struct {
	vec      textproc.SparseVector
	once     sync.Once
	deltas   []index.Delta
	computed bool // set inside once; read by Register and Unregister, which exclude every shard
	refs     int  // under msgTable.mu
}

// deltaList returns the message's delta list, computing it in acc on the
// first call from any shard.
func (x *AdIndex) deltaList(mc *msgCache, acc *index.Accumulator) []index.Delta {
	mc.once.Do(func() { mc.deltas, mc.computed = acc.DeltaList(x.inv, mc.vec), true })
	return mc.deltas
}

// msgTable is the message → shared state map of one AdIndex. A shard comes
// here once per Deliver, once per catch-up and once per buffer it settles or
// turns cold. It is the innermost engine lock: taken under a shard lock, never
// around one.
type msgTable struct {
	mu sync.Mutex
	m  map[feed.MessageID]*msgCache
}

// hold takes n references on a message's shared state, creating it — the
// delta list left for whoever first needs it — if nothing holds the message
// yet.
func (t *msgTable) hold(msg feed.Message, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	mc := t.m[msg.ID]
	if mc == nil {
		mc = &msgCache{vec: msg.Vec}
		t.m[msg.ID] = mc
	}
	mc.refs += n
}

// release drops one reference on each message in gone and on each of the
// window's first n messages, under one lock, and a message's shared state
// with its last reference.
func (t *msgTable) release(gone []feed.Message, win *feed.Window, n int) {
	if len(gone)+n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range gone {
		t.drop(m.ID)
	}
	for i := range n {
		t.drop(win.At(i).ID)
	}
}

// drop drops one reference on a message. The caller holds t.mu.
func (t *msgTable) drop(id feed.MessageID) {
	if mc := t.m[id]; mc != nil {
		if mc.refs--; mc.refs <= 0 {
			delete(t.m, id)
		}
	}
}

// lookup appends to dst the shared state of each message in gone and of the
// window's messages from the from-th on, in that order, under one lock.
func (t *msgTable) lookup(dst []*msgCache, gone []feed.Message, win *feed.Window, from int) []*msgCache {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range gone {
		dst = append(dst, t.m[m.ID])
	}
	for i := from; i < win.Len(); i++ {
		dst = append(dst, t.m[win.At(i).ID])
	}
	return dst
}
