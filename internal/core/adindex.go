package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/index"
)

// AdIndex is the ad side of the IL and CAP engines: the keyword inverted
// index, the geographic/static pre-filter, the live-ad table the scoring paths
// read, the delta lists of fan-out sharing, and the record of ad churn the
// candidate buffers settle at their next read. The shards of one engine
// share one AdIndex. They read it under their own lock; Register and
// Unregister write it, and their caller holds every shard lock, so no reader
// runs meanwhile. What shards change concurrently is per post or takes a
// mutex of its own: a post's references and delta list live on its record
// (feed.Post; hold, release, deltaList), the computed lists are listed under
// listsMu, and the free catch-up workspaces under spacesMu.
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

	// lists holds the posts whose delta list is computed, so that Register
	// and Unregister can patch every computed list; listsMu is taken only to
	// compute or drop one. held counts the posts with a reference.
	listsMu sync.Mutex
	lists   map[*feed.Post]struct{}
	held    atomic.Int64

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
		lists:  make(map[*feed.Post]struct{}),
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
	x.listsMu.Lock()
	defer x.listsMu.Unlock()
	for p := range x.lists {
		if c := a.Vec.Dot(p.Vec); c != 0 {
			// At its sorted position, not the end: a released slot is below
			// others, and merge relies on the ascending order DeltaList gave
			// the list.
			i, _ := findDelta(p.Deltas, slot)
			p.Deltas = slices.Insert(p.Deltas, i, index.Delta{Slot: slot, Coeff: index.Pack(c)})
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
	x.listsMu.Lock()
	defer x.listsMu.Unlock()
	for p := range x.lists {
		if i, ok := findDelta(p.Deltas, slot); ok {
			p.Deltas = slices.Delete(p.Deltas, i, i+1)
		}
	}
}

// record appends a slot to the churn record.
func (x *AdIndex) record(slot uint32) {
	x.churn[x.churned%churnCap] = slot
	x.churned++
}

// Postings reports the keyword inverted index's total (term, ad) postings.
// It reads an atomic, so the facade's gauge samples it at scrape time
// without a shard lock.
func (x *AdIndex) Postings() int { return x.inv.Postings() }

// CachedMessages returns the number of posts some warm user holds a
// reference on, on any shard (fan-out sharing memory diagnostic): the posts
// whose shared delta list is live, computed or still to be.
func (x *AdIndex) CachedMessages() int { return int(x.held.Load()) }

// The phases of a post's shared delta list, in the bits of feed.Post.Shared
// above its 32-bit reference count. A phase moves out of listBusy only by the
// shard that moved it in, so it moves by an atomic add.
const (
	listNone  = 0 << 32 // not computed: the next catch-up that needs it computes it
	listBusy  = 1 << 32 // one shard computes or drops it; any other waits
	listReady = 2 << 32 // computed: Deltas is the list, and AdIndex.lists holds the post
	listPhase = 3 << 32
)

// hold takes n references on a post's delta list: one for each warm user
// whose window holds the post, and one for each whose buffer still owes its
// subtraction. A shard keeps no count of its own, because a post belongs to
// no shard.
func (x *AdIndex) hold(p *feed.Post, n int) {
	if uint32(p.Shared.Add(uint64(n))) == uint32(n) {
		x.held.Add(1)
	}
}

// release drops one reference on each post, and a post's delta list with its
// last — unless a hold comes back first, which keeps the list computed.
func (x *AdIndex) release(posts ...*feed.Post) {
	for _, p := range posts {
		s := p.Shared.Add(^uint64(0))
		if uint32(s) != 0 {
			continue
		}
		x.held.Add(-1)
		for ; s == listReady; s = p.Shared.Load() {
			if p.Shared.CompareAndSwap(s, listBusy) {
				x.listsMu.Lock()
				delete(x.lists, p)
				p.Deltas = nil
				x.listsMu.Unlock()
				p.Shared.Add(^uint64(listBusy - 1)) // listNone, and whatever holds came meanwhile
				break
			}
		}
	}
}

// deltaList returns a post's shared delta list, computing it in acc if it is
// not computed: once per live period, from a post's first reference to its
// last release. The caller's buffer holds a reference on the post, so the
// list is not dropped while it is read; a shard that asks while another
// computes or drops it waits for that one.
func (x *AdIndex) deltaList(p *feed.Post, acc *index.Accumulator) []index.Delta {
	for {
		switch s := p.Shared.Load(); s & listPhase {
		case listReady:
			return p.Deltas
		case listNone:
			if !p.Shared.CompareAndSwap(s, s|listBusy) {
				continue
			}
			d := acc.DeltaList(x.inv, p.Vec)
			x.listsMu.Lock()
			p.Deltas, x.lists[p] = d, struct{}{}
			x.listsMu.Unlock()
			p.Shared.Add(listReady - listBusy)
			return d
		default:
			runtime.Gosched()
		}
	}
}
