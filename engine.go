package caar

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"caar/internal/adstore"
	"caar/internal/core"
	"caar/internal/faultinject"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
	"caar/obs"
	"caar/obs/hotkey"
	"caar/obs/trace"
)

// Engine is the public recommender. It is safe for concurrent use: the text
// pipeline and ad store are concurrency-safe, per-shard locks serialize
// engine-state mutation while allowing posts to fan out across shards in
// parallel, the one ad index the shards share is written only with every
// shard lock held, and the name-resolution state (user handles, ad names,
// campaigns) lives in an immutable copy-on-write directory published with
// an atomic pointer — the serving read path resolves names without taking
// any global lock.
type Engine struct {
	cfg      Config
	pipeline *textproc.Pipeline
	store    *adstore.Store
	graph    *feed.Graph

	// dir is the current name-resolution snapshot. Readers load it once
	// per request; writers derive-and-publish under dirMu. nextAd is
	// also guarded by dirMu.
	dir    atomic.Pointer[directory]
	dirMu  sync.Mutex
	nextAd adstore.AdID // guarded by dirMu

	// ads is the ad side every shard reads (core.AdIndex): one inverted
	// index, one geo index, one ad table and one delta list per message,
	// whatever the shard count. Registration writes it holding every shard
	// lock (lockShards); a reader holds its own shard's, and settles what
	// registration changed for its user then (core.AdIndex).
	ads         *core.AdIndex
	shards      []shard
	impressions *impressionLog
	trends      *trendTracker

	postsDelivered atomic.Uint64
	checkIns       atomic.Uint64

	// scratch is the batch scratch no PostBatch or CheckInBatch is using,
	// or nil while one is (takeScratch).
	scratch atomic.Pointer[batchScratch]

	metrics *obs.Registry
	obsm    *engineMetrics
	tracer  *trace.Store

	// hot is the heavy-hitter telemetry tracker; nil when disabled. All
	// record calls on it are lock-free enqueues (nil-safe no-ops when
	// disabled), so the serving path's lock-freedom is preserved.
	hot *hotkey.Tracker
}

// adRef is a directory entry for one live ad: its external name and its
// campaign (empty for campaign-less ads). Keeping the campaign here lets
// the policy stage resolve it without consulting the (locked) ad store.
type adRef struct {
	name     string
	campaign string
}

// directory is the engine's immutable name-resolution snapshot: user
// handles, ad names and ad campaigns. A directory is never mutated after
// being published via Engine.dir — writers derive a new one under
// Engine.dirMu and atomically swap it in, so readers work against one
// consistent view with zero lock acquisitions and writers never block
// readers. Deriving one costs O(√n), not O(n): the three maps are cowMaps,
// which share their large layer between versions (DESIGN.md §3.3).
//
// Invariant: a user ID visible in a published directory exists in its shard
// and in the graph — AddUser registers there first and publishes last — so a
// write that passed ValidateUser cannot fail its fan-out with ErrUnknownUser.
type directory struct {
	users cowMap[string, feed.UserID]
	// names is the handle by internal user ID. It only ever grows, and every
	// version is derived from the newest one under Engine.dirMu, so versions
	// share one backing array: withUser appends past the len of every older
	// version, which never reads there.
	names []string
	adIDs cowMap[string, adstore.AdID]
	ads   cowMap[adstore.AdID, adRef]
}

// withUser returns a directory with one more user, and the ID it was given.
func (d *directory) withUser(handle string) (*directory, feed.UserID) {
	id := feed.UserID(len(d.names))
	return &directory{
		users: d.users.with(handle, id),
		names: append(d.names, handle),
		adIDs: d.adIDs,
		ads:   d.ads,
	}, id
}

// withAd returns a directory with one ad mapping added.
func (d *directory) withAd(name string, id adstore.AdID, campaign string) *directory {
	return &directory{
		users: d.users,
		names: d.names,
		adIDs: d.adIDs.with(name, id),
		ads:   d.ads.with(id, adRef{name: name, campaign: campaign}),
	}
}

// withoutAd returns a directory with one ad mapping removed.
func (d *directory) withoutAd(name string, id adstore.AdID) *directory {
	return &directory{
		users: d.users,
		names: d.names,
		adIDs: d.adIDs.without(name),
		ads:   d.ads.without(id),
	}
}

// lookup resolves a user handle in this snapshot.
func (d *directory) lookup(handle string) (feed.UserID, error) {
	id, ok := d.users.get(handle)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownUser, handle)
	}
	return id, nil
}

// userName resolves an internal user ID back to its handle.
func (d *directory) userName(u feed.UserID) string {
	if int(u) < len(d.names) {
		return d.names[u]
	}
	return fmt.Sprintf("user-%d", u)
}

// campaignOf resolves an external ad ID to its campaign name ("" when
// campaign-less or withdrawn from this snapshot).
func (d *directory) campaignOf(adID string) string {
	id, ok := d.adIDs.get(adID)
	if !ok {
		return ""
	}
	ref, _ := d.ads.get(id)
	return ref.campaign
}

// shard is one engine instance plus its serializing lock. shard is copied by
// value; the pointer keeps all copies sharing one lock.
type shard struct {
	mu  *sync.Mutex
	eng shardEngine
}

// shardEngine is what the facade calls on a shard: a *core.CAP, which Open
// always builds. It is an interface so that tests can put core.RS, the
// exhaustive oracle, or a failing fake in a shard's place. Ads are not on
// it: they are written to the store and the shared ad side, and a shard
// reads both.
type shardEngine interface {
	AddUser(u feed.UserID)
	CheckIn(u feed.UserID, p geo.Point, t time.Time) error
	DeliverPost(p *feed.Post, followers []feed.UserID) error
	AppendTopAds(dst []core.Scored, u feed.UserID, k int, t time.Time) ([]core.Scored, error)
	LastQuery() core.Query
}

// Common errors returned by Engine methods.
var (
	ErrUnknownUser     = errors.New("caar: unknown user")
	ErrUnknownAd       = errors.New("caar: unknown ad")
	ErrUnknownCampaign = errors.New("caar: unknown campaign")
	ErrDuplicate       = errors.New("caar: duplicate identifier")
)

// Open creates an engine from a configuration.
func Open(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nShards := cfg.Shards
	if nShards == 0 {
		nShards = defaultShards(runtime.GOMAXPROCS(0))
	}
	e := &Engine{
		cfg:         cfg,
		pipeline:    textproc.NewPipeline(),
		store:       adstore.NewStore(),
		graph:       feed.NewGraph(),
		nextAd:      1,
		impressions: newImpressionLog(),
		trends:      newTrendTracker(),
	}
	e.dir.Store(new(directory))
	scoring := cfg.scoring()
	var err error
	if e.ads, err = core.NewAdIndex(geo.Rect(cfg.Region), gridSize, gridSize); err != nil {
		return nil, err
	}
	for i := 0; i < nShards; i++ {
		eng, err := core.NewCAPOn(scoring, e.store, e.ads, core.DefaultCAPOptions())
		if err != nil {
			return nil, err
		}
		e.shards = append(e.shards, shard{mu: new(sync.Mutex), eng: eng})
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e.metrics = reg
	e.obsm = newEngineMetrics(reg, e)
	e.tracer = cfg.Tracer
	if e.tracer != nil {
		e.tracer.RegisterMetrics(reg)
	}
	if !cfg.DisableHotKeys {
		hot, err := hotkey.New(hotkey.Config{Metrics: reg})
		if err != nil {
			return nil, err
		}
		// Display names resolve at query time against whatever directory
		// snapshot is current then — one lock-free atomic load, no
		// serving-path locks.
		hot.SetResolver(hotkey.DimUsers, func(key uint64) string {
			return e.dir.Load().userName(feed.UserID(key))
		})
		hot.SetResolver(hotkey.DimPosters, func(key uint64) string {
			return e.dir.Load().userName(feed.UserID(key))
		})
		e.hot = hot
	}
	return e, nil
}

// shardsPerCore is how many shards Open makes per core when Config.Shards is
// 0. One shard per core leaves a core idle at a post's fan-out barrier while
// the other's goroutine starts; four give the caller's core more of a post's
// refreshes to run meanwhile (DESIGN.md §3.3).
const shardsPerCore = 4

// defaultShards is the shard count Config.Shards 0 resolves to on procs
// cores: one on a single core, where there is nothing to run in parallel.
func defaultShards(procs int) int {
	if procs == 1 {
		return 1
	}
	return shardsPerCore * procs
}

func (e *Engine) shardOf(u feed.UserID) shard {
	return e.shards[int(u)%len(e.shards)]
}

// lockShards takes every shard lock, in shard order — what writing the shared
// ad side, or a consistent snapshot, needs — and returns the release.
func (e *Engine) lockShards() (unlock func()) {
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	return func() {
		for _, sh := range e.shards {
			sh.mu.Unlock()
		}
	}
}

// AddUser registers a user handle. Duplicate handles are rejected.
func (e *Engine) AddUser(handle string) error {
	if handle == "" {
		return fmt.Errorf("%w: empty user handle", ErrBadConfig)
	}
	e.dirMu.Lock()
	unwatch := faultinject.WatchLock("engine.dirMu")
	d := e.dir.Load()
	if _, dup := d.users.get(handle); dup {
		unwatch()
		e.dirMu.Unlock()
		return fmt.Errorf("%w: user %q", ErrDuplicate, handle)
	}
	// Shard first, the directory last (its invariant); dirMu is held across
	// both so IDs are published in the order they were minted.
	nd, id := d.withUser(handle)
	sh := e.shardOf(id)
	sh.mu.Lock()
	sh.eng.AddUser(id)
	sh.mu.Unlock()
	e.dir.Store(nd)
	unwatch()
	e.dirMu.Unlock()
	return nil
}

func (e *Engine) lookupUser(handle string) (feed.UserID, error) {
	return e.dir.Load().lookup(handle)
}

// Follow makes follower receive followee's posts.
func (e *Engine) Follow(follower, followee string) error {
	fid, err := e.lookupUser(follower)
	if err != nil {
		return err
	}
	pid, err := e.lookupUser(followee)
	if err != nil {
		return err
	}
	return e.graph.Follow(fid, pid)
}

// Unfollow removes a follow edge.
func (e *Engine) Unfollow(follower, followee string) error {
	fid, err := e.lookupUser(follower)
	if err != nil {
		return err
	}
	pid, err := e.lookupUser(followee)
	if err != nil {
		return err
	}
	return e.graph.Unfollow(fid, pid)
}

// AddCampaign registers an ad campaign with a paced budget over a flight
// window.
func (e *Engine) AddCampaign(name string, budget float64, start, end time.Time) error {
	c, err := adstore.NewCampaign(name, budget, start, end)
	if err != nil {
		return err
	}
	if err := e.store.AddCampaign(c); err != nil {
		if errors.Is(err, adstore.ErrDuplicateCampaign) {
			return fmt.Errorf("%w: campaign %q", ErrDuplicate, name)
		}
		return err
	}
	return nil
}

// AddAd validates and registers an advertisement.
func (e *Engine) AddAd(ad Ad) error {
	if ad.ID == "" {
		return fmt.Errorf("%w: empty ad ID", ErrBadConfig)
	}
	vec := e.vectorize(ad.Text)
	if len(vec) == 0 {
		return fmt.Errorf("caar: ad %q has no indexable keywords in %q", ad.ID, ad.Text)
	}
	slots := timeslot.AllSlots
	if len(ad.Slots) > 0 {
		slots = 0
		for _, s := range ad.Slots {
			sl, ok := s.internal()
			if !ok {
				return fmt.Errorf("%w: unknown slot %q", ErrBadConfig, s)
			}
			slots |= timeslot.NewSet(sl)
		}
	}
	internal := &adstore.Ad{
		Campaign: ad.Campaign,
		Vec:      vec,
		Slots:    slots,
		Bid:      ad.Bid,
	}
	if ad.Target == nil {
		internal.Global = true
	} else {
		internal.Target = geo.Circle{
			Center:   geo.Point{Lat: ad.Target.Lat, Lng: ad.Target.Lng},
			RadiusKm: ad.Target.RadiusKm,
		}
	}

	if err := e.publishAd(ad.ID, internal); err != nil {
		if errors.Is(err, adstore.ErrUnknownCampaign) {
			return fmt.Errorf("%w: %q (ad %q)", ErrUnknownCampaign, ad.Campaign, ad.ID)
		}
		return err
	}
	return nil
}

// publishAd is the tail AddAd and snapshot restore share: reserve the
// internal ID and publish the name (one directory swap, so every
// intermediate view stays consistent), validate and store (store.Add does
// both), then index the ad once under every shard lock — each user's
// candidate buffer takes it at the user's next read; a failure after the
// publish withdraws the name again. Errors come back unwrapped —
// ErrDuplicate from the reservation, adstore's own from validation and the
// store — for the caller to dress.
func (e *Engine) publishAd(name string, ad *adstore.Ad) error {
	var err error
	if ad.ID, err = e.mapAd(name, ad.Campaign); err != nil {
		return err
	}
	if err := e.store.Add(ad); err != nil {
		e.unmapAd(name, ad.ID)
		return err
	}
	unlock := e.lockShards()
	e.ads.Register(ad)
	unlock()
	return nil
}

// mapAd reserves the next internal ID for an external ad name and publishes
// the mapping in a new directory snapshot. The name must be free.
func (e *Engine) mapAd(name, campaign string) (adstore.AdID, error) {
	e.dirMu.Lock()
	defer e.dirMu.Unlock()
	defer faultinject.WatchLock("engine.dirMu")()
	d := e.dir.Load()
	if _, dup := d.adIDs.get(name); dup {
		return 0, fmt.Errorf("%w: ad %q", ErrDuplicate, name)
	}
	id := e.nextAd
	e.nextAd++
	e.dir.Store(d.withAd(name, id, campaign))
	return id, nil
}

func (e *Engine) unmapAd(name string, id adstore.AdID) {
	e.dirMu.Lock()
	unwatch := faultinject.WatchLock("engine.dirMu")
	e.dir.Store(e.dir.Load().withoutAd(name, id))
	unwatch()
	e.dirMu.Unlock()
}

// RemoveAd withdraws an advertisement. The directory snapshot without the
// ad is published *before* the store and shard indexes are torn down: the
// moment RemoveAd commits, no in-flight recommend can resolve the name in
// toRecommendations, so a withdrawn ad is never served even while its
// index entries are still being cleaned up, or while a candidate buffer
// still holds it until its user's next read. (The reverse order — the seed
// behavior — let a concurrent recommend serve an ad that RemoveAd had
// already deleted from the store.)
func (e *Engine) RemoveAd(id string) error {
	e.dirMu.Lock()
	unwatch := faultinject.WatchLock("engine.dirMu")
	d := e.dir.Load()
	internalID, ok := d.adIDs.get(id)
	if !ok {
		unwatch()
		e.dirMu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownAd, id)
	}
	ref, _ := d.ads.get(internalID)
	e.dir.Store(d.withoutAd(id, internalID))
	unwatch()
	e.dirMu.Unlock()

	if err := e.store.Remove(internalID); err != nil {
		// Roll the unmap back so the directory and the store stay
		// consistent: the ad is still live.
		e.dirMu.Lock()
		unwatch := faultinject.WatchLock("engine.dirMu")
		e.dir.Store(e.dir.Load().withAd(id, internalID, ref.campaign))
		unwatch()
		e.dirMu.Unlock()
		return err
	}
	unlock := e.lockShards()
	e.ads.Unregister(internalID)
	unlock()
	return nil
}

// CheckIn updates a user's location context. It is the single-item form of
// CheckInBatch and shares its implementation.
func (e *Engine) CheckIn(user string, lat, lng float64, at time.Time) error {
	return e.CheckInBatch([]CheckInRequest{{User: user, Lat: lat, Lng: lng, At: at}})[0]
}

// CheckInBatch applies a batch of location updates, grouped by destination
// shard so each shard lock is taken once per batch. The returned slice has
// one entry per request (nil on success), in request order; within a shard,
// updates apply in request order.
func (e *Engine) CheckInBatch(reqs []CheckInRequest) []error {
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return errs
	}
	d := e.dir.Load()
	s := e.takeScratch()
	work := s.work
	for i, r := range reqs {
		uid, err := d.lookup(r.User)
		if err != nil {
			errs[i] = err
			continue
		}
		w := &work[int(uid)%len(work)]
		w.checkIns = append(w.checkIns, checkInSlot{item: i, uid: uid})
	}
	for si := range work {
		w, sh := &work[si], e.shards[si]
		if len(w.checkIns) == 0 {
			continue
		}
		sh.mu.Lock()
		for _, sl := range w.checkIns {
			r := reqs[sl.item]
			if err := sh.eng.CheckIn(sl.uid, geo.Point{Lat: r.Lat, Lng: r.Lng}, r.At); err != nil {
				errs[sl.item] = err
				continue
			}
			e.checkIns.Add(1)
		}
		sh.mu.Unlock()
	}
	e.keepScratch(s)
	return errs
}

// checkInSlot is a check-in of a CheckInBatch whose user resolved: its index
// in the batch and the user.
type checkInSlot struct {
	item int
	uid  feed.UserID
}

// ValidateUser reports whether a handle resolves in the current directory
// snapshot. It is lock-free (one atomic pointer load) so the asynchronous
// ingest accept path can reject unknown authors before enqueueing without
// touching any shard lock.
func (e *Engine) ValidateUser(handle string) error {
	_, err := e.dir.Load().lookup(handle)
	return err
}

// ValidateCheckIn reports whether a check-in would be accepted: the user
// resolves and the point lies inside the configured region. Like
// ValidateUser it is lock-free, so the asynchronous ingest path can return
// the same rejections a synchronous CheckIn would — before acknowledging —
// without touching any shard lock.
func (e *Engine) ValidateCheckIn(user string, lat, lng float64) error {
	if _, err := e.dir.Load().lookup(user); err != nil {
		return err
	}
	if !geo.Rect(e.cfg.Region).Contains(geo.Point{Lat: lat, Lng: lng}) {
		return fmt.Errorf("caar: check-in (%v, %v) outside region", lat, lng)
	}
	return nil
}

// Post publishes a message: the text is semantically processed once and the
// message fans out to the author's followers (and the author's own feed).
// With more than one shard and ContinuousK > 0, the fan-out is processed in
// parallel across shards. Post is the single-message form of PostBatch and
// shares its implementation.
func (e *Engine) Post(author, text string, at time.Time) error {
	return e.PostBatch([]PostRequest{{Author: author, Text: text, At: at}})[0]
}

// PostBatch publishes a batch of messages with grouped fan-out: the batch is
// partitioned by destination shard and each shard's lock is taken once per
// batch, updating every affected follower window under that single
// acquisition, instead of one lock round-trip per post. The returned slice
// has one entry per request (nil on success), in request order; within a
// shard, messages apply in request order. The asynchronous ingest pipeline
// (package ingest) drains its ring through this entry point.
//
// Trending and hot-key telemetry are recorded only for posts whose delivery
// succeeded — a failed fan-out must not pollute Trending or /v1/hot with
// phantom counts.
func (e *Engine) PostBatch(reqs []PostRequest) []error {
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return errs
	}
	// One directory snapshot serves the whole batch: every lookup and every
	// continuous recommendation below resolves names against the same view.
	d := e.dir.Load()
	s := e.takeScratch()
	// Each post's one record, which every shard it reaches shares.
	posts := slices.Grow(s.posts[:0], len(reqs))[:len(reqs)] // nil: keepScratch cleared them
	for i, r := range reqs {
		uid, err := d.lookup(r.Author)
		if err != nil {
			errs[i] = err
			continue
		}
		posts[i] = &feed.Post{Message: feed.Message{
			Author: uid,
			Time:   r.At,
			Vec:    e.vectorize(r.Text),
		}}
	}
	s.posts = posts
	e.deliver(s, d, errs)
	for i := range reqs {
		if errs[i] != nil {
			continue
		}
		// Telemetry strictly after successful delivery (a failed deliver used
		// to leave phantom terms in Trending).
		e.trends.observe(timeslot.Of(reqs[i].At), posts[i].Vec)
	}
	e.keepScratch(s)
	return errs
}

// batchScratch is what a PostBatch or a CheckInBatch works in and hands out
// nothing of: the batch, one share per shard, and the posts. The engine keeps
// one (Engine.scratch).
type batchScratch struct {
	b     batch
	work  []fanout // one per shard
	posts []*feed.Post
}

// maxKeptScratch is the most bytes a kept scratch's slices may hold
// (batchScratch.bytes). A full 256-post batch — the ingest applier's largest
// and a journal replay's run — holds about 0.13 MB at 30 followers a post on
// 8 shards, 0.5 MB with its refreshes' results at ContinuousK 5, so a
// saturated applier and a replay reuse one scratch batch after batch. A
// batch that needs more is a large one, which spreads its allocations over
// many posts (the benchmark's 6 000-post warm-up holds about 3 MB), and
// keeping what it grew would hold it for the life of the engine.
const maxKeptScratch = 1 << 20

// takeScratch takes the engine's scratch, or makes one while another batch
// has it. A one-slot atomic cache, unlike a sync.Pool, keeps its scratch
// under the race detector and takes no lock.
func (e *Engine) takeScratch() *batchScratch {
	if s := e.scratch.Swap(nil); s != nil {
		return s
	}
	s := &batchScratch{work: make([]fanout, len(e.shards))}
	for si := range s.work {
		s.work[si].b, s.work[si].si = &s.b, si
	}
	return s
}

// keepScratch empties a scratch and gives it back for the next batch, unless
// it has outgrown maxKeptScratch. It drops what the scratch would pin of the
// batch: the posts, the directory and the recommendations slab.
func (e *Engine) keepScratch(s *batchScratch) {
	clear(s.posts)
	s.b.d, s.b.posts = nil, nil
	for si := range s.work {
		w := &s.work[si]
		w.users, w.spans, w.scored, w.out, w.recs, w.checkIns = w.users[:0], w.spans[:0], w.scored[:0], w.out[:0], nil, w.checkIns[:0]
	}
	if s.bytes() <= maxKeptScratch {
		e.scratch.Store(s)
	}
}

// bytes is what a scratch's slices hold, by capacity. A share's affected map
// is left out: it holds an entry a refresh, which scored and out count
// already.
func (s *batchScratch) bytes() uintptr {
	n := uintptr(cap(s.posts)) * unsafe.Sizeof(s.posts[0])
	for si := range s.work {
		w := &s.work[si]
		n += uintptr(cap(w.users))*unsafe.Sizeof(w.users[0]) +
			uintptr(cap(w.spans))*unsafe.Sizeof(w.spans[0]) +
			uintptr(cap(w.checkIns))*unsafe.Sizeof(w.checkIns[0]) +
			uintptr(cap(w.scored))*unsafe.Sizeof(w.scored[0]) +
			uintptr(cap(w.out))*unsafe.Sizeof(w.out[0])
	}
	return n
}

// batch is what every shard's share of one deliver call reads: the engine,
// the directory snapshot, the posts, and the wait for the shares run on
// goroutines of their own.
type batch struct {
	e     *Engine
	d     *directory
	posts []*feed.Post
	wg    sync.WaitGroup
}

// fanout is one shard's share of a batch, kept from batch to batch: the
// recipients of every message that reaches the shard, flat, and which stretch
// of them each message goes to; or a CheckInBatch's check-ins for the shard,
// in request order.
//
// In continuous mode it also carries the shard's refreshes: affected, for a
// shard more than one message reaches, maps each distinct recipient to the
// time of the last message that reached it (one message's recipients are
// distinct already); scored and out hold the refreshes' results, and recs is
// the shard's piece of the batch's recommendations slab, cut to its distinct
// recipients.
type fanout struct {
	b        *batch
	si       int // the shard's index in Engine.shards
	users    []feed.UserID
	spans    []span
	checkIns []checkInSlot

	affected map[feed.UserID]time.Time
	scored   []core.Scored
	out      []continuousRec
	recs     []Recommendation
}

// span says users[lo:hi] of a fanout receive posts[item]; err is what the
// shard's Deliver made of it.
type span struct {
	item, lo, hi int
	err          error
}

// continuousRec is one continuous-mode recommendation computed under the
// shard lock and delivered to the OnRecommend callback after it is released.
type continuousRec struct {
	user feed.UserID
	recs []core.Scored
}

// distinct is how many distinct users the shard refreshes.
func (w *fanout) distinct() int {
	if len(w.spans) == 1 {
		return w.spans[0].hi - w.spans[0].lo
	}
	return len(w.affected)
}

// collectAffected fills affected from the spans delivered without error —
// before the shard delivers, every span.
func (w *fanout) collectAffected(posts []*feed.Post) {
	clear(w.affected)
	for _, sp := range w.spans {
		if sp.err == nil {
			for _, u := range w.users[sp.lo:sp.hi] {
				w.affected[u] = posts[sp.item].Time
			}
		}
	}
}

// deliver fans the scratch's posts out to their follower windows, grouped
// so each shard lock is acquired once per batch. One pass over each post's
// follower list, which the graph never changes once handed out
// (feed.Graph.Followers), appends each recipient to its shard's share and
// records the share's span. Per-item errors land in errs (for an item split
// across shards, the lowest failing shard's). A push-only batch (ContinuousK
// 0) runs every busy shard inline, since its window pushes cost less than a
// goroutine start; with continuous refreshes, one busy shard runs in the
// caller and the others on goroutines of their own. Everything it works in
// is the scratch's; what it allocates is the recommendations slab it hands
// out (cutRefreshSlabs).
func (e *Engine) deliver(s *batchScratch, d *directory, errs []error) {
	posts, work := s.posts, s.work
	n, busy, k := len(e.shards), 0, e.cfg.ContinuousK
	b := &s.b
	b.e, b.d, b.posts = e, d, posts
	// Each share is sized from the follower counts, its even part and an
	// eighth over it for the spread of ids, so a cold share grows once, not
	// once per doubling.
	recipients := 0
	for i, p := range posts {
		if errs[i] == nil {
			recipients += e.graph.FollowerCount(p.Author) + 1
		}
	}
	share := recipients/n + recipients/(8*n) + 1
	for si := range work {
		work[si].users, work[si].spans = slices.Grow(work[si].users, share), slices.Grow(work[si].spans, min(share, len(posts)))
	}
	for i, p := range posts {
		if errs[i] != nil {
			continue
		}
		own := &work[int(p.Author)%n]
		own.users = append(own.users, p.Author) // the author sees their own post
		for _, u := range e.graph.Followers(p.Author) {
			w := &work[int(u)%n]
			w.users = append(w.users, u)
		}
		for si := range work {
			w, lo := &work[si], 0
			if len(w.spans) > 0 {
				lo = w.spans[len(w.spans)-1].hi
			}
			if len(w.users) > lo {
				if lo == 0 {
					busy++ // the shard's first span
				}
				w.spans = append(w.spans, span{item: i, lo: lo, hi: len(w.users)})
			}
		}
	}
	if k > 0 {
		s.cutRefreshSlabs(k)
	}

	inline := -1 // the busy shard the caller runs
	for si := range work {
		w := &work[si]
		switch {
		case len(w.spans) == 0:
		case busy == 1 || k == 0:
			e.runShard(w)
		case inline < 0:
			inline = si
		default:
			// Queued before its goroutine starts, a share is there when
			// the goroutine looks. Every share in a full queue has its
			// goroutine started already, so a send waits, never deadlocks.
			b.wg.Add(1)
			shardTasks <- w
			go runShardTask()
		}
	}
	if inline >= 0 {
		e.runShard(&work[inline])
	}
	b.wg.Wait()
	for si := range work {
		for _, sp := range work[si].spans {
			if sp.err != nil && errs[sp.item] == nil {
				errs[sp.item] = sp.err
			}
		}
	}
	for i := range posts {
		if errs[i] != nil {
			continue
		}
		// Fan-out cost telemetry: the author is charged one unit per feed
		// window written. Lock-free enqueue; nil-safe no-op when disabled.
		reached := e.graph.FollowerCount(posts[i].Author) + 1
		e.hot.RecordKey(hotkey.DimPosters, uint64(posts[i].Author), uint64(reached))
		e.postsDelivered.Add(1)
	}
}

// cutRefreshSlabs grows every busy shard's results to its distinct
// recipients, and gives it its piece of the recommendations slab made for the
// batch, whatever the shard count, capped so that a shard that outgrows it
// reallocates rather than writes into the next. A batch that reaches a user
// many times refreshes them once.
func (s *batchScratch) cutRefreshSlabs(k int) {
	// A shard holds at most every n-th user: a bound on its distinct
	// recipients that keeps a large batch's maps from being sized by repeats.
	work := s.work
	perShard := (len(s.b.d.names) + len(work) - 1) / len(work)
	refreshes := 0
	for si := range work {
		w := &work[si]
		if len(w.spans) == 0 {
			continue
		}
		if len(w.spans) > 1 {
			if w.affected == nil {
				w.affected = make(map[feed.UserID]time.Time, min(len(w.users), perShard))
			}
			w.collectAffected(s.b.posts)
		}
		r := w.distinct()
		w.scored, w.out = slices.Grow(w.scored, r*k), slices.Grow(w.out, r)
		refreshes += r
	}
	recs := make([]Recommendation, refreshes*k)
	for si := range work {
		if w := &work[si]; len(w.spans) > 0 {
			r := w.distinct() * k
			w.recs, recs = recs[:0:r], recs[r:]
		}
	}
}

// shardTasks hands a busy shard's share of a batch to the goroutine deliver
// starts for it (runShardTask). Every engine in the process shares it: a
// share carries its engine, and each goroutine takes exactly one share,
// whichever was queued first.
var shardTasks = make(chan *fanout, 64)

// runShardTask is the goroutine deliver starts for a busy shard. A function
// started with no arguments allocates nothing, where a closure over the
// share, or a method value, would allocate once per shard and post.
func runShardTask() {
	w := <-shardTasks
	w.b.e.runShard(w)
	w.b.wg.Done()
}

// runShard delivers one shard's share of a batch under a single acquisition
// of the shard lock, recording each span's result in it. The continuous-mode
// OnRecommend callback is invoked strictly outside the lock: a slow consumer
// costs only its own goroutine, never the shard's fan-out or the writers
// queued behind it. Each reached user gets one callback per batch (after its
// last message of the batch), not one per message.
//
// The refreshes are computed into the share's kept results and handed out as
// capped sub-slices of its piece of the batch's recommendations slab
// (cutRefreshSlabs), which nothing reuses, so a callback may keep its slice:
// a refresh allocates nothing of its own.
func (e *Engine) runShard(w *fanout) {
	d, sh, posts, k := w.b.d, e.shards[w.si], w.b.posts, e.cfg.ContinuousK
	sh.mu.Lock() //caarlint:allow readpathlock per-shard core lock is the designed serialization point
	failed := false
	for i := range w.spans {
		sp := &w.spans[i]
		sp.err = sh.eng.DeliverPost(posts[sp.item], w.users[sp.lo:sp.hi])
		failed = failed || sp.err != nil
	}
	if k == 0 {
		sh.mu.Unlock()
		return
	}
	refresh := func(u feed.UserID, at time.Time) {
		lo := len(w.scored)
		recs, err := sh.eng.AppendTopAds(w.scored, u, k, at)
		if err != nil {
			e.obsm.continuousErrors.Inc()
			return
		}
		w.scored = recs
		w.out = append(w.out, continuousRec{user: u, recs: w.scored[lo:len(w.scored):len(w.scored)]})
	}
	if len(w.spans) == 1 {
		if sp := w.spans[0]; sp.err == nil {
			for _, u := range w.users[sp.lo:sp.hi] {
				refresh(u, posts[sp.item].Time)
			}
		}
	} else {
		if failed {
			w.collectAffected(posts) // without the failed spans' recipients
		}
		for u, at := range w.affected {
			refresh(u, at)
		}
	}
	sh.mu.Unlock()
	for _, c := range w.out {
		lo := len(w.recs)
		w.recs = e.appendRecommendations(w.recs, d, c.recs)
		e.cfg.OnRecommend(d.userName(c.user), w.recs[lo:len(w.recs):len(w.recs)])
	}
}

// MaxK is the largest k Recommend and Trending accept: collectors and CAP's
// views are sized from k, so an unbounded k is a one-request OOM.
const MaxK = 1000

// Recommend returns the top-k ads for a user at the given time.
func (e *Engine) Recommend(user string, k int, at time.Time) ([]Recommendation, error) {
	recs, _, err := e.recommend(user, k, at, ServingPolicy{}, TraceRequest{})
	return recs, err
}

// recommend is the unified serving pipeline behind Recommend and
// RecommendTraced: lookup → (shard-lock wait) → core ranking
// (retrieve/score/topk, timed by the shard engine into its
// query record and copied out under the lock) → result mapping → policy
// filtering. Every stage goes through engineMetrics.record once, in order:
// its latency histogram — the policy stage too, even with a zero policy, so
// each query touches the whole stage family and the stage counts stay
// mutually comparable — and, when a tracer is configured (or the request
// forces an explanation), the request's flight record; with tracing off, tr
// stays nil and the extra cost is one nil check per stage.
func (e *Engine) recommend(user string, k int, at time.Time, policy ServingPolicy, treq TraceRequest) ([]Recommendation, *trace.Trace, error) {
	start := time.Now()
	tr := e.beginTrace(treq, user, k, at, start)
	// One atomic load pins the name-resolution view for the whole request;
	// no stage below takes a global lock.
	d := e.dir.Load()
	uid, err := d.lookup(user)
	if err != nil {
		e.obsm.recommendErrors.Inc()
		return nil, e.finishTrace(tr, time.Since(start), err), err
	}
	if k < 1 || k > MaxK {
		err = fmt.Errorf("%w: k=%d, want 1..%d", ErrBadConfig, k, MaxK)
	} else if policy.FrequencyWindow > maxFrequencyWindow {
		err = fmt.Errorf("%w: frequency window %v, want at most %v", ErrBadConfig, policy.FrequencyWindow, maxFrequencyWindow)
	}
	if err != nil {
		e.obsm.recommendErrors.Inc()
		return nil, e.finishTrace(tr, time.Since(start), err), err
	}
	// Hot-key telemetry: one lock-free bounded-queue enqueue (nil-safe
	// no-op when disabled).
	e.hot.RecordKey(hotkey.DimUsers, uint64(uid), 1)
	span := e.obsm.recordSince(tr, stageLookup, start, 1, 1)

	fetch := k
	if policy.enabled() {
		fetch = k * overfetch
	}
	sh := e.shardOf(uid)
	sh.mu.Lock() //caarlint:allow readpathlock per-shard core lock is the designed serialization point
	locked := time.Now()
	scored, err := sh.eng.AppendTopAds(nil, uid, fetch, at)
	q := sh.eng.LastQuery()
	sh.mu.Unlock()
	e.obsm.lockWaitSeconds.ObserveDuration(locked.Sub(span))
	if tr != nil {
		tr.Shard = int(uid) % len(e.shards)
		tr.LockWaitSeconds = locked.Sub(span).Seconds()
	}
	if err != nil {
		e.obsm.recommendErrors.Inc()
		return nil, e.finishTrace(tr, time.Since(start), err), err
	}
	for s, sp := range q.Stages {
		e.obsm.record(tr, stageRetrieve+s, sp.D, sp.In, sp.Out)
	}
	if tr != nil {
		tr.Path = q.Path
	}

	span = time.Now()
	recs := e.appendRecommendations(make([]Recommendation, 0, len(scored)), d, scored)
	mapped := e.obsm.recordSince(tr, stageMap, span, len(scored), len(recs))
	out := e.applyPolicy(d, user, k, at, policy, recs, tr)
	e.obsm.recordSince(tr, stagePolicy, mapped, len(recs), len(out))
	if tr != nil {
		for _, rec := range out {
			tr.AddAd(trace.AdScore{AdID: rec.AdID, Score: rec.Score, Text: rec.Text, Geo: rec.Geo, Bid: rec.Bid})
		}
	}

	elapsed := time.Since(start)
	e.obsm.recommendSeconds.ObserveDuration(elapsed)
	return out, e.finishTrace(tr, elapsed, nil), nil
}

// ServeImpression bills one impression of an ad against its campaign's
// paced budget and, when billed to a named user, notes it for that user's
// frequency cap; an empty user is an anonymous impression. It reports
// whether the impression may be shown; false means the campaign is out of
// (released) budget.
func (e *Engine) ServeImpression(user, adID string, at time.Time) (bool, error) {
	d := e.dir.Load()
	if user != "" {
		if _, err := d.lookup(user); err != nil {
			return false, err
		}
	}
	internalID, ok := d.adIDs.get(adID)
	if !ok {
		e.obsm.impressions.With("error").Inc()
		return false, fmt.Errorf("%w: %q", ErrUnknownAd, adID)
	}
	served, err := e.store.ChargeImpression(internalID, at)
	switch {
	case err != nil:
		e.obsm.impressions.With("error").Inc()
	case served:
		e.obsm.impressions.With("billed").Inc()
		if user != "" {
			e.impressions.record(user, adID, at)
		}
		// Spend telemetry per campaign (per ad name for campaign-less
		// ads): lock-free enqueue against the directory snapshot already
		// loaded above.
		ref, _ := d.ads.get(internalID)
		name := ref.campaign
		if name == "" {
			name = ref.name
		}
		e.hot.Record(hotkey.DimCampaigns, name, 1)
	default:
		e.obsm.impressions.With("budget_exhausted").Inc()
	}
	return served, err
}

// appendRecommendations maps core results to the public type using the
// caller's directory snapshot — no locks, no lookups beyond the map reads —
// and appends them to dst.
func (e *Engine) appendRecommendations(dst []Recommendation, d *directory, scored []core.Scored) []Recommendation {
	for _, s := range scored {
		ref, ok := d.ads.get(s.Ad)
		if !ok {
			continue // withdrawn concurrently
		}
		dst = append(dst, Recommendation{
			AdID:  ref.name,
			Score: s.Score,
			Text:  s.Text,
			Geo:   s.Geo,
			Bid:   s.Bid,
		})
	}
	return dst
}

// Stats returns a monitoring snapshot. It takes no shard lock, so a caller
// that polls it never waits for a fan-out or a read.
func (e *Engine) Stats() Stats {
	st := Stats{
		Ads:            e.store.Len(),
		FollowEdges:    e.graph.Edges(),
		PostsDelivered: e.postsDelivered.Load(),
		CheckIns:       e.checkIns.Load(),
		Shards:         len(e.shards),
	}
	st.Users = e.dir.Load().users.len()
	st.CachedMessages = e.ads.CachedMessages() // shared: counted once
	st.CandidateBufferEntries = e.bufferEntries()
	return st
}

// bufferEntries sums the shards' materialised candidate-buffer entries. It
// takes no shard lock (core.CAP.TotalBufferEntries), so a caller that polls
// Stats never waits for a fan-out.
func (e *Engine) bufferEntries() (total int) {
	e.eachCAP(func(c *core.CAP) { total += c.TotalBufferEntries() })
	return total
}

// eachCAP calls f with each shard engine that is a CAP (all but a test's
// stand-in). It takes no shard lock: f reads only what a CAP keeps atomic, so
// a scrape or a Stats poll never waits for a fan-out or a read.
func (e *Engine) eachCAP(f func(*core.CAP)) {
	for _, sh := range e.shards {
		if c, ok := sh.eng.(*core.CAP); ok {
			f(c)
		}
	}
}
