package caar

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
// parallel, and the name-resolution state (user handles, ad names,
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

	shards      []shard
	msgSeq      atomic.Int64
	impressions *impressionLog
	trends      *trendTracker

	postsDelivered atomic.Uint64
	checkIns       atomic.Uint64

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
	eng core.Shardable
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
	if nShards < 1 {
		nShards = 1
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
	region := geo.Rect(cfg.Region)
	for i := 0; i < nShards; i++ {
		var (
			eng core.Shardable
			err error
		)
		switch cfg.Algorithm {
		case AlgorithmRS:
			eng, err = core.NewRS(scoring, e.store)
		case AlgorithmIL:
			eng, err = core.NewIL(scoring, e.store, region, gridSize, gridSize)
		default:
			eng, err = core.NewCAP(scoring, e.store, region, gridSize, gridSize, core.DefaultCAPOptions())
		}
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
		// serving-path locks. Terms resolve through the vocabulary's
		// read lock, which only queries (never record sites) pay.
		hot.SetResolver(hotkey.DimUsers, func(key uint64) string {
			return e.dir.Load().userName(feed.UserID(key))
		})
		hot.SetResolver(hotkey.DimPosters, func(key uint64) string {
			return e.dir.Load().userName(feed.UserID(key))
		})
		hot.SetResolver(hotkey.DimTerms, func(key uint64) string {
			return e.pipeline.Vocab.Term(textproc.TermID(key))
		})
		e.hot = hot
	}
	return e, nil
}

// Algorithm returns the configured algorithm name.
func (e *Engine) Algorithm() Algorithm {
	if e.cfg.Algorithm == "" {
		return AlgorithmCAP
	}
	return e.cfg.Algorithm
}

func (e *Engine) shardOf(u feed.UserID) shard {
	return e.shards[int(u)%len(e.shards)]
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
	// Shard and graph first, the directory last (its invariant); dirMu is
	// held across both so IDs are published in the order they were minted.
	nd, id := d.withUser(handle)
	e.graph.AddUser(id)
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
// both), then register on every shard; a failure after the publish withdraws
// the name again. Errors come back unwrapped — ErrDuplicate from the
// reservation, adstore's own from validation and the store — for the caller
// to dress.
func (e *Engine) publishAd(name string, ad *adstore.Ad) error {
	var err error
	if ad.ID, err = e.mapAd(name, ad.Campaign); err != nil {
		return err
	}
	if err := e.store.Add(ad); err != nil {
		e.unmapAd(name, ad.ID)
		return err
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.eng.RegisterAd(ad)
		sh.mu.Unlock()
	}
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
// index entries are still being cleaned up. (The reverse order — the seed
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
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.eng.UnregisterAd(internalID)
		sh.mu.Unlock()
	}
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
	type slot struct {
		item int
		uid  feed.UserID
	}
	groups := make([][]slot, len(e.shards))
	for i, r := range reqs {
		uid, err := d.lookup(r.User)
		if err != nil {
			errs[i] = err
			continue
		}
		si := int(uid) % len(e.shards)
		groups[si] = append(groups[si], slot{item: i, uid: uid})
	}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		sh := e.shards[si]
		sh.mu.Lock()
		for _, s := range g {
			r := reqs[s.item]
			if err := sh.eng.CheckIn(s.uid, geo.Point{Lat: r.Lat, Lng: r.Lng}, r.At); err != nil {
				errs[s.item] = err
				continue
			}
			e.checkIns.Add(1)
		}
		sh.mu.Unlock()
	}
	return errs
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
	r := e.cfg.Region
	if lat < r.MinLat || lat > r.MaxLat || lng < r.MinLng || lng > r.MaxLng {
		return fmt.Errorf("caar: check-in (%v, %v) outside region", lat, lng)
	}
	return nil
}

// Post publishes a message: the text is semantically processed once and the
// message fans out to the author's followers (and the author's own feed).
// With Shards > 1, the fan-out is processed in parallel across shards. Post
// is the single-message form of PostBatch and shares its implementation.
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
	msgs := make([]feed.Message, len(reqs))
	for i, r := range reqs {
		uid, err := d.lookup(r.Author)
		if err != nil {
			errs[i] = err
			continue
		}
		msgs[i] = feed.Message{
			ID:     feed.MessageID(e.msgSeq.Add(1)),
			Author: uid,
			Time:   r.At,
			Vec:    e.vectorize(r.Text),
		}
	}
	e.deliver(d, msgs, errs)
	for i := range reqs {
		if errs[i] != nil {
			continue
		}
		// Telemetry strictly after successful delivery (a failed deliver used
		// to leave phantom terms in Trending and /v1/hot?dim=terms).
		e.trends.observe(timeslot.Of(reqs[i].At), msgs[i].Vec)
		for term := range msgs[i].Vec {
			e.hot.RecordKey(hotkey.DimTerms, uint64(term), 1)
		}
	}
	return errs
}

// fanout is one shard's share of a batch: the recipients of every message
// that reaches the shard, flat, and which stretch of them each message goes to.
type fanout struct {
	users []feed.UserID
	spans []span
}

// span says users[lo:hi] of a fanout receive msgs[item]; err is what the
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

// deliver fans a batch of messages out to their follower windows, grouped so
// each shard lock is acquired once per batch. Recipients are partitioned
// straight from the graph's follower lists, which are immutable once handed
// out (feed.Graph.Followers). Per-item errors land in errs (for an item split
// across shards, the lowest failing shard's). Each shard runs on its own
// goroutine unless only one has work, which runs inline.
func (e *Engine) deliver(d *directory, msgs []feed.Message, errs []error) {
	n, busy := len(e.shards), 0
	work := make([]fanout, n)
	for i := range msgs {
		if errs[i] != nil {
			continue
		}
		author := msgs[i].Author
		followers := e.graph.Followers(author)
		for si := range work {
			// Room for an even share; append takes what hashing adds to it.
			work[si].users = slices.Grow(work[si].users, len(followers)/n+1)
		}
		own := &work[int(author)%n]
		own.users = append(own.users, author) // the author sees their own post
		for _, u := range followers {
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

	var wg sync.WaitGroup
	for si := range work {
		w := &work[si]
		if len(w.spans) == 0 {
			continue
		}
		if busy == 1 {
			e.runShard(d, e.shards[si], msgs, w)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runShard(d, e.shards[si], msgs, w)
		}()
	}
	wg.Wait()
	for si := range work {
		for _, sp := range work[si].spans {
			if sp.err != nil && errs[sp.item] == nil {
				errs[sp.item] = sp.err
			}
		}
	}
	for i := range msgs {
		if errs[i] != nil {
			continue
		}
		// Fan-out cost telemetry: the author is charged one unit per feed
		// window written. Lock-free enqueue; nil-safe no-op when disabled.
		reached := e.graph.FollowerCount(msgs[i].Author) + 1
		e.hot.RecordKey(hotkey.DimPosters, uint64(msgs[i].Author), uint64(reached))
		e.postsDelivered.Add(1)
	}
}

// runShard delivers one shard's share of a batch under a single acquisition
// of the shard lock, recording each span's result in it. The continuous-mode
// OnRecommend callback is invoked strictly outside the lock: a slow consumer
// costs only its own goroutine, never the shard's fan-out or the writers
// queued behind it. Each reached user gets one callback per batch (after its
// last message of the batch), not one per message.
func (e *Engine) runShard(d *directory, sh shard, msgs []feed.Message, w *fanout) {
	var affected map[feed.UserID]time.Time
	if e.cfg.ContinuousK > 0 {
		affected = make(map[feed.UserID]time.Time, len(w.users))
	}
	sh.mu.Lock() //caarlint:allow readpathlock per-shard core lock is the designed serialization point
	for i := range w.spans {
		sp := &w.spans[i]
		users := w.users[sp.lo:sp.hi]
		if sp.err = sh.eng.Deliver(msgs[sp.item], users); sp.err != nil || affected == nil {
			continue
		}
		for _, u := range users {
			affected[u] = msgs[sp.item].Time
		}
	}
	out := make([]continuousRec, 0, len(affected))
	for u, at := range affected {
		recs, err := sh.eng.TopAds(u, e.cfg.ContinuousK, at)
		if err != nil {
			e.obsm.continuousErrors.Inc()
			continue
		}
		out = append(out, continuousRec{user: u, recs: recs})
	}
	sh.mu.Unlock()
	for _, c := range out {
		e.cfg.OnRecommend(d.userName(c.user), e.toRecommendations(d, c.recs))
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

// recommend is the unified serving pipeline behind Recommend,
// RecommendWithPolicy and RecommendTraced: lookup → (shard-lock wait) →
// core ranking (retrieve/score/topk, timed by the shard engine into its
// query record and copied out under the lock) → result mapping → policy
// filtering. Every stage goes through engineMetrics.record once, in order:
// its latency histogram — the policy stage too, even with a zero policy, so
// each query touches the whole stage family and the stage counts stay
// mutually comparable — and, when a tracer is configured (or the request
// forces an explanation), the request's flight record; with tracing off, tr
// stays nil and the extra cost is one nil check per stage.
func (e *Engine) recommend(user string, k int, at time.Time, policy ServingPolicy, treq TraceRequest) ([]Recommendation, *trace.Trace, error) {
	start := time.Now()
	// Serving-path latency fault: disarmed this is one atomic load. The soak
	// and capture-smoke harnesses arm it (CAAR_DELAYS=serve.recommend:5ms) to
	// verify the SLO watchdog trips and the resulting capture bundle's CPU
	// profile attributes the stall to the injected site.
	faultinject.DelayPoint("serve.recommend")
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
		e.obsm.recommendErrors.Inc()
		err := fmt.Errorf("%w: k=%d, want 1..%d", ErrBadConfig, k, MaxK)
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
	scored, err := sh.eng.TopAds(uid, fetch, at)
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
	recs := e.toRecommendations(d, scored)
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
// paced budget. It reports whether the impression may be shown; false means
// the campaign is out of (released) budget.
func (e *Engine) ServeImpression(adID string, at time.Time) (bool, error) {
	d := e.dir.Load()
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

// toRecommendations maps core results to the public type using the
// caller's directory snapshot — no locks, no lookups beyond the map reads.
func (e *Engine) toRecommendations(d *directory, scored []core.Scored) []Recommendation {
	out := make([]Recommendation, 0, len(scored))
	for _, s := range scored {
		ref, ok := d.ads.get(s.Ad)
		if !ok {
			continue // withdrawn concurrently
		}
		out = append(out, Recommendation{
			AdID:  ref.name,
			Score: s.Score,
			Text:  s.Text,
			Geo:   s.Geo,
			Bid:   s.Bid,
		})
	}
	return out
}

// Stats returns a monitoring snapshot.
func (e *Engine) Stats() Stats {
	st := Stats{
		Ads:            e.store.Len(),
		FollowEdges:    e.graph.Edges(),
		PostsDelivered: e.postsDelivered.Load(),
		CheckIns:       e.checkIns.Load(),
		Shards:         len(e.shards),
	}
	st.Users = e.dir.Load().users.len()
	e.eachCAP(func(c *core.CAP) {
		st.CachedMessages += c.CachedMessages()
		st.CandidateBufferEntries += c.TotalBufferEntries()
	})
	return st
}

// eachCAP calls f with each shard engine that is a CAP, under its lock.
func (e *Engine) eachCAP(f func(*core.CAP)) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		if c, ok := sh.eng.(*core.CAP); ok {
			f(c)
		}
		sh.mu.Unlock()
	}
}
