// Package hotkey is the always-on heavy-hitter telemetry layer: bounded-
// memory sliding-window sketches over the serving and ingest paths that
// answer "which key is hot right now" per dimension — the user drawing
// recommendation traffic, the poster with the costliest fan-out, the
// campaign burning impressions, the keyword term flooding the post stream.
//
// The design splits the hot path from aggregation. Record sites (inside
// Recommend/deliver/ServeImpression, which caarlint's readpathlock analyzer
// keeps lock-free) do exactly one lock-free enqueue onto a bounded
// per-dimension MPSC ring; a full ring drops the observation and bumps an
// atomic counter, so telemetry can degrade but can never add latency or
// unbounded memory to serving. A single aggregator — driven by Run's
// ticker and by every query — drains the rings under a per-dimension mutex
// into a sketch.Windowed (count-min + space-saving top-k, time-decayed in
// ring'd sub-windows) and refreshes the caar_hot_* gauges.
//
// Estimates carry explicit error bounds: a reported count never
// under-states the true windowed count and over-states it by at most the
// reported bound (ε·N per sub-window, summed over the window) with
// per-sub-window probability ≥ 1−δ.
package hotkey

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"caar/internal/ring"
	"caar/internal/sketch"
	"caar/obs"
)

// Dimension names one tracked key space.
type Dimension string

const (
	// DimUsers counts recommendation requests per requesting user.
	DimUsers Dimension = "users"
	// DimPosters counts delivery fan-out cost per post author: each post
	// weighs author's-follower-count + 1, the number of windows written.
	DimPosters Dimension = "posters"
	// DimCampaigns counts served impressions per campaign (per ad for
	// campaign-less ads).
	DimCampaigns Dimension = "campaigns"
	// DimTerms counts keyword-term occurrences in the post stream.
	DimTerms Dimension = "terms"
)

// Dimensions lists every tracked dimension in reporting order.
func Dimensions() []Dimension {
	return []Dimension{DimUsers, DimPosters, DimCampaigns, DimTerms}
}

// Valid reports whether d names a tracked dimension.
func Valid(d Dimension) bool {
	return d == DimUsers || d == DimPosters || d == DimCampaigns || d == DimTerms
}

// Resolver maps a raw key to a display name at query time (e.g. user ID →
// handle via the engine's copy-on-write directory). It must be safe to call
// concurrently and must not touch serving-path locks; returning "" falls
// back to the numeric key.
type Resolver func(key uint64) string

// The sketches' shape: K results per dimension, and each sub-window's
// count-min sketch sized by epsilon/delta (width 544 × depth 5, ~21 KiB);
// subWindows ring'd sub-windows make up the sliding window.
const (
	capacityK  = 32
	epsilon    = 0.005
	delta      = 0.01
	subWindows = 6
)

// Config sizes the tracker. Zero values take defaults.
type Config struct {
	// Window is the sliding-window length (default 1m), split into
	// subWindows ring'd sub-windows.
	Window time.Duration
	// QueueCapacity bounds each dimension's record ring (default 16384,
	// rounded up to a power of two).
	QueueCapacity int
	// Metrics, when set, registers the caar_hot_* families.
	Metrics *obs.Registry
	// Now injects a clock for tests (default time.Now).
	Now func() time.Time
}

// HotKey is one reported heavy hitter. The true windowed count lies in
// [Count−ErrorBound, Count] (the lower edge with per-sub-window probability
// ≥ 1−δ; the upper edge always).
type HotKey struct {
	Key        string `json:"key"`
	Count      uint64 `json:"count"`
	ErrorBound uint64 `json:"error_bound"`
	// RawKey is the underlying sketch key (user/term ID, or the hash of a
	// string key) for programmatic consumers like the hot-partition
	// report; it is not part of the wire format.
	RawKey uint64 `json:"-"`
}

// DimReport is the query result for one dimension.
type DimReport struct {
	Dimension     string   `json:"dimension"`
	WindowSeconds float64  `json:"window_seconds"` // effective window queried
	WindowWeight  uint64   `json:"window_weight"`  // total weight in that window
	Events        uint64   `json:"events_total"`   // observations accepted (lifetime)
	Dropped       uint64   `json:"dropped_total"`  // observations dropped on full queue (lifetime)
	TrackedKeys   int      `json:"tracked_keys"`   // live candidate keys in the ring
	Keys          []HotKey `json:"keys"`
}

// event is one record-path observation: a key (pre-hashed for string-keyed
// dimensions, with the display name carried alongside) and its weight.
type event struct {
	key    uint64
	weight uint64
	name   string
}

// dimension is one key space: a lock-free record ring feeding a windowed
// sketch guarded by mu. mu is only ever taken by the aggregator and by
// queries — never on the serving path.
type dimension struct {
	name   Dimension
	q      *ring.Ring[event]
	events *obs.Counter
	drops  *obs.Counter

	tracked *obs.Gauge
	weight  *obs.Gauge
	share   *obs.Gauge

	mu      sync.Mutex
	win     *sketch.Windowed  // guarded by mu
	names   map[uint64]string // guarded by mu; candidate key → display name (string-keyed dims)
	resolve Resolver          // guarded by mu
}

// Tracker tracks heavy hitters across all dimensions. All methods are safe
// on a nil receiver (no-ops / zero reports), so callers can wire it
// unconditionally and disable it by leaving it nil.
type Tracker struct {
	now  func() time.Time
	dims [4]*dimension // users, posters, campaigns, terms
}

// New builds a tracker from cfg.
func New(cfg Config) (*Tracker, error) {
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1 << 14
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	span := cfg.Window / subWindows
	if span <= 0 {
		return nil, fmt.Errorf("hotkey: window %v too short for %d sub-windows", cfg.Window, subWindows)
	}

	var eventsV, dropsV *obs.CounterVec
	var trackedV, weightV, shareV *obs.GaugeVec
	if cfg.Metrics != nil {
		eventsV = cfg.Metrics.CounterVec("caar_hot_events_total", "Hot-key observations recorded, by dimension.", "dim")
		dropsV = cfg.Metrics.CounterVec("caar_hot_dropped_total", "Hot-key observations dropped on a full record queue, by dimension.", "dim")
		trackedV = cfg.Metrics.GaugeVec("caar_hot_tracked_keys", "Heavy-hitter candidate keys currently tracked, by dimension.", "dim")
		weightV = cfg.Metrics.GaugeVec("caar_hot_window_weight", "Total observation weight in the sliding window, by dimension.", "dim")
		shareV = cfg.Metrics.GaugeVec("caar_hot_top_share_ratio", "Fraction of window weight held by the hottest key, by dimension.", "dim")
	}

	t := &Tracker{now: cfg.Now}
	for i, name := range Dimensions() {
		win, err := sketch.NewWindowed(capacityK, epsilon, delta, span, subWindows)
		if err != nil {
			return nil, err
		}
		d := &dimension{
			name:  name,
			q:     ring.New[event](cfg.QueueCapacity),
			win:   win,
			names: make(map[uint64]string),
		}
		if cfg.Metrics != nil {
			d.events = eventsV.With(string(name))
			d.drops = dropsV.With(string(name))
			d.tracked = trackedV.With(string(name))
			d.weight = weightV.With(string(name))
			d.share = shareV.With(string(name))
		} else {
			d.events = &obs.Counter{}
			d.drops = &obs.Counter{}
			d.tracked = &obs.Gauge{}
			d.weight = &obs.Gauge{}
			d.share = &obs.Gauge{}
		}
		t.dims[i] = d
	}
	return t, nil
}

func (t *Tracker) dim(d Dimension) *dimension {
	if t == nil {
		return nil
	}
	switch d {
	case DimUsers:
		return t.dims[0]
	case DimPosters:
		return t.dims[1]
	case DimCampaigns:
		return t.dims[2]
	case DimTerms:
		return t.dims[3]
	}
	return nil
}

// SetResolver installs dim's query-time key→name resolver.
func (t *Tracker) SetResolver(dim Dimension, r Resolver) {
	d := t.dim(dim)
	if d == nil {
		return
	}
	d.mu.Lock()
	d.resolve = r
	d.mu.Unlock()
}

// RecordKey records weight against a raw key. Lock-free and non-blocking:
// safe from the serving path.
func (t *Tracker) RecordKey(dim Dimension, key uint64, weight uint64) {
	t.dim(dim).record(event{key: key, weight: weight})
}

// Record records weight against a string key (hashed; the name travels with
// the event for query-time display). Lock-free and non-blocking.
func (t *Tracker) Record(dim Dimension, name string, weight uint64) {
	t.dim(dim).record(event{key: hashName(name), weight: weight, name: name})
}

func (d *dimension) record(ev event) {
	if d == nil || ev.weight == 0 {
		return
	}
	if d.q.Push(ev) {
		d.events.Inc()
	} else {
		d.drops.Inc()
	}
}

// hashName is FNV-1a 64, the key space for string-keyed dimensions.
func hashName(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// drainLocked folds every queued observation into the windowed sketch,
// prunes the name table to live candidates, and refreshes the gauges.
// Caller holds d.mu.
func (d *dimension) drainLocked(now time.Time) {
	changed := false
	for {
		ev, ok := d.q.Pop()
		if !ok {
			break
		}
		d.win.Offer(ev.key, ev.weight, now)
		if ev.name != "" {
			d.names[ev.key] = ev.name
		}
		changed = true
	}
	if changed && len(d.names) > 0 {
		live := make(map[uint64]struct{})
		for _, k := range d.win.Candidates() {
			live[k] = struct{}{}
		}
		for k := range d.names {
			if _, ok := live[k]; !ok {
				delete(d.names, k)
			}
		}
	}
	d.tracked.Set(float64(len(d.win.Candidates())))
	total := d.win.Total(now, 0)
	d.weight.Set(float64(total))
	share := 0.0
	if top := d.win.TopK(now, 0); total > 0 && len(top) > 0 {
		share = float64(top[0].Count) / float64(total)
	}
	d.share.Set(share)
}

// Sync drains all record queues into the sketches immediately. Queries call
// it implicitly; tests and shutdown paths call it for determinism.
func (t *Tracker) Sync() {
	if t == nil {
		return
	}
	now := t.now()
	for _, d := range t.dims {
		d.mu.Lock()
		d.drainLocked(now)
		d.mu.Unlock()
	}
}

// Run drains the queues every 500ms until stop closes, keeping gauges and
// window decay fresh between queries. Optional: queries self-drain.
func (t *Tracker) Run(stop <-chan struct{}) {
	if t == nil {
		return
	}
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			t.Sync()
		}
	}
}

// Report returns the top-k heavy hitters of one dimension over the
// requested window (0 = the full ring). k ≤ 0 defaults to 10; k is capped
// at the tracker's capacity.
func (t *Tracker) Report(dim Dimension, k int, window time.Duration) (DimReport, error) {
	d := t.dim(dim)
	if d == nil {
		return DimReport{}, fmt.Errorf("hotkey: unknown dimension %q", dim)
	}
	if k <= 0 {
		k = 10
	}
	now := t.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainLocked(now)
	top := d.win.TopK(now, window)
	if len(top) > k {
		top = top[:k]
	}
	bound := d.win.ErrorBound(now, window)
	rep := DimReport{
		Dimension:     string(dim),
		WindowSeconds: d.win.CoveredSpan(window).Seconds(),
		WindowWeight:  d.win.Total(now, window),
		Events:        d.events.Value(),
		Dropped:       d.drops.Value(),
		TrackedKeys:   len(d.win.Candidates()),
		Keys:          make([]HotKey, 0, len(top)),
	}
	for _, c := range top {
		rep.Keys = append(rep.Keys, HotKey{Key: d.displayLocked(c.Key), Count: c.Count, ErrorBound: bound, RawKey: c.Key})
	}
	return rep, nil
}

func (d *dimension) displayLocked(key uint64) string {
	if n, ok := d.names[key]; ok {
		return n
	}
	if d.resolve != nil {
		if n := d.resolve(key); n != "" {
			return n
		}
	}
	return "key:" + strconv.FormatUint(key, 10)
}
