package core

import (
	"cmp"
	"math"
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
// runs meanwhile. The delta-list table is the exception: shards take and drop
// messages in it concurrently, under its own mutex (msgTable).
type AdIndex struct {
	inv    *index.Inverted
	geoIdx *index.GeoAds
	grid   *geo.Grid // geoIdx's, for the reach of an ad and the cell of a user
	region geo.Rect
	ads    map[adstore.AdID]liveAd
	msgs   msgTable

	// churn holds the last churnCap ad IDs registered or unregistered, the
	// i-th of them (counting from 0) at churn[i%churnCap]; churned counts
	// them all. Nothing per user happens at registration: a buffer that
	// accounts for fewer than churned settles the rest when it is next read
	// (CAP.catchUp), and one more than churnCap behind is rebuilt instead.
	churn   [churnCap]adstore.AdID
	churned uint64
}

// churnCap bounds how far behind the churn record a candidate buffer can
// settle ad by ad; one further behind is rebuilt by its next read.
const churnCap = 64

// liveAd is a registered ad and its reach, the cells whose users it can be
// shown to: those the grid registers its target circle under, every cell for
// a global ad. A candidate buffer holds an ad only if its reach holds the
// user's cell.
type liveAd struct {
	a     *adstore.Ad
	reach geo.Reach
}

// everywhere is a global ad's reach, and noCell the cell of a user with no
// location, which only everywhere holds: no grid row is negative.
var (
	everywhere = geo.Reach{MinRow: math.MinInt16, MaxRow: math.MaxInt16, MinCol: math.MinInt16, MaxCol: math.MaxInt16}
	noCell     = geo.Reach{MinRow: -1, MaxRow: -1, MinCol: -1, MaxCol: -1}
)

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
		ads:    make(map[adstore.AdID]liveAd),
		msgs:   msgTable{m: make(map[feed.MessageID]*msgCache)},
	}, nil
}

// Register indexes an ad already in the store and inserts its coefficient,
// with its reach, into every computed delta list, so the evictions still to
// come stay exact. The caller excludes every reader; each candidate buffer
// takes the ad's exact value when it is next read.
func (x *AdIndex) Register(a *adstore.Ad) {
	x.inv.Add(a.ID, a.Vec)
	x.geoIdx.Add(a)
	reach := everywhere
	if !a.Global {
		reach = x.grid.Reach(a.Target.Bounds())
	}
	x.ads[a.ID] = liveAd{a: a, reach: reach}
	x.record(a.ID)
	x.msgs.mu.Lock()
	defer x.msgs.mu.Unlock()
	for _, mc := range x.msgs.m {
		if !mc.computed {
			continue // it will be computed with the ad
		}
		if c := a.Vec.Dot(mc.vec); c != 0 {
			// At its sorted position, not the end: IDs need not be registered
			// in order, and merge relies on the ascending order DeltaList gave
			// the list.
			i, _ := mc.find(a.ID)
			mc.deltas = slices.Insert(mc.deltas, i, reachDelta{Delta: index.Delta{Ad: a.ID, Coeff: c}, reach: reach})
		}
	}
}

// Unregister drops an ad from the indexes, the table and every computed delta
// list, without touching the store. The cleanup is eager: a stale delta entry
// for a removed ID would corrupt scores if the ID were ever reused. The
// caller excludes every reader; each candidate buffer drops the ad when it is
// next read, and until then ranking skips it (CAP.rank).
func (x *AdIndex) Unregister(id adstore.AdID) {
	x.inv.Remove(id)
	x.geoIdx.Remove(id)
	delete(x.ads, id)
	x.record(id)
	x.msgs.mu.Lock()
	defer x.msgs.mu.Unlock()
	for _, mc := range x.msgs.m {
		if i, ok := mc.find(id); ok {
			mc.deltas = slices.Delete(mc.deltas, i, i+1)
		}
	}
}

// record appends an ad ID to the churn record.
func (x *AdIndex) record(id adstore.AdID) {
	x.churn[x.churned%churnCap] = id
	x.churned++
}

// ad returns the live ad record (nil when withdrawn).
func (x *AdIndex) ad(id adstore.AdID) *adstore.Ad { return x.ads[id].a }

// withReach returns a delta list with each entry's reach, in one allocation.
func (x *AdIndex) withReach(deltas []index.Delta) []reachDelta {
	out := make([]reachDelta, len(deltas))
	for i, d := range deltas {
		out[i] = reachDelta{Delta: d, reach: x.ads[d.Ad].reach}
	}
	return out
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

// reachDelta is one entry of a message's delta list with the ad's reach,
// which decides the candidate buffers the entry enters.
type reachDelta struct {
	index.Delta
	reach geo.Reach
}

// msgCache is the shared state of one message under fan-out sharing: its
// delta list with reaches, computed once — by the first catch-up on any shard
// that needs it — and a count of the shards holding it.
type msgCache struct {
	vec      textproc.SparseVector
	once     sync.Once
	deltas   []reachDelta
	computed bool // set inside once; read by Register and Unregister, which exclude every shard
	shards   int  // under msgTable.mu
}

// deltaList returns the message's delta list, computing it in acc on the
// first call from any shard.
func (x *AdIndex) deltaList(mc *msgCache, acc *index.Accumulator) []reachDelta {
	mc.once.Do(func() { mc.deltas, mc.computed = x.withReach(acc.Deltas(x.inv, mc.vec)), true })
	return mc.deltas
}

// find returns the position of ad in the delta list, or the position it
// would be inserted at and false.
func (mc *msgCache) find(ad adstore.AdID) (int, bool) {
	return slices.BinarySearchFunc(mc.deltas, ad, func(d reachDelta, ad adstore.AdID) int { return cmp.Compare(d.Ad, ad) })
}

// msgTable is the message → shared state map of one AdIndex. A shard comes
// here only for its first reference to a message and for its last release
// (CAP.held counts the references in between), so the mutex is taken twice
// per message a shard holds, never per follower. It is the innermost engine
// lock: taken under a shard lock, never around one.
type msgTable struct {
	mu sync.Mutex
	m  map[feed.MessageID]*msgCache
}

// join returns a message's shared state for a shard taking its first
// reference, creating it — the delta list left for whoever first needs it —
// if no shard holds the message yet.
func (t *msgTable) join(msg feed.Message) *msgCache {
	t.mu.Lock()
	defer t.mu.Unlock()
	mc := t.m[msg.ID]
	if mc == nil {
		mc = &msgCache{vec: msg.Vec}
		t.m[msg.ID] = mc
	}
	mc.shards++
	return mc
}

// leave drops a shard's hold on a message, and the shared state with the
// last shard's.
func (t *msgTable) leave(id feed.MessageID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if mc := t.m[id]; mc != nil {
		if mc.shards--; mc.shards <= 0 {
			delete(t.m, id)
		}
	}
}
