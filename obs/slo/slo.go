// Package slo is the self-observing half of the observability layer: it
// turns the serving histograms the rest of the system already maintains
// into latency/error objectives, multi-window burn rates, and an anomaly
// trigger — without adding anything to the request path.
//
// # Model
//
// An Objective declares what "good" means for one endpoint: either a
// latency bound (requests at or under the threshold are good) or an
// availability bound (non-5xx responses are good), plus a target fraction
// such as 0.99. The error budget is 1 - target.
//
// A Tracker samples each objective's cumulative (good, total) counters on a
// fixed cadence — scrape-time snapshots of the existing exp-bucket
// histograms, so the serving path is never touched — and keeps a ring of
// samples long enough to cover the slow window. The burn rate over a
// window w is
//
//	burn(w) = badFraction(w) / (1 - target)
//
// where badFraction is computed from the difference between the newest
// sample and the sample at the far edge of w. burn = 1 means the error
// budget is being consumed exactly at the sustainable rate; burn = 14.4
// (the default trip threshold, from the SRE workbook's page-severity
// tier) exhausts a 30-day budget in ~50 hours.
//
// The watchdog trips when BOTH the fast (default 5m) and slow (default 1h)
// windows burn above the threshold: the fast window makes detection quick,
// the slow window keeps a brief blip from paging. A trip invokes OnTrip —
// wired by adserver to the capture recorder (obs/capture) so the profiles
// are taken while the anomaly is still happening — at most once per
// cooldown per objective.
//
// # Quantization
//
// Latency objectives are evaluated against histogram buckets, so the
// effective threshold is the largest bucket bound at or under the declared
// one (the strict direction: quantization can only make the objective
// tighter, never silently looser). Status reports both values.
//
// # Counter resets
//
// Sources are cumulative. If a sample observes a count lower than its
// predecessor — an engine swap, a test re-registering collectors — the ring
// resets and the windows rebuild from the new baseline instead of
// reporting enormous negative deltas.
package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"caar/obs"
)

// Kind discriminates what an objective counts as a good event.
type Kind string

const (
	// KindLatency counts requests at or under the threshold as good.
	KindLatency Kind = "latency"
	// KindAvailability counts non-5xx responses as good.
	KindAvailability Kind = "availability"
)

// Objective declares an SLO for one endpoint.
type Objective struct {
	// Name labels the objective in metrics and reports; unique per tracker.
	Name string
	// Endpoint is the serving path the objective watches.
	Endpoint string
	Kind     Kind
	// Threshold is the latency bound (KindLatency only).
	Threshold time.Duration
	// Target is the good fraction the SLO promises, in (0, 1).
	Target float64
}

func (o Objective) validate() error {
	if o.Name == "" || o.Endpoint == "" {
		return fmt.Errorf("slo: objective needs a name and an endpoint")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("slo: objective %q target %v outside (0, 1)", o.Name, o.Target)
	}
	switch o.Kind {
	case KindLatency:
		if o.Threshold <= 0 {
			return fmt.Errorf("slo: latency objective %q needs a positive threshold", o.Name)
		}
	case KindAvailability:
	default:
		return fmt.Errorf("slo: objective %q has unknown kind %q", o.Name, o.Kind)
	}
	return nil
}

// Source yields an objective's cumulative good/total event counts. Called
// once per sampling tick; must be safe for concurrent use and cheap.
type Source func() (good, total uint64)

// LatencySource adapts a latency histogram into a Source: total is the
// observation count, good the observations in buckets at or under the
// effective threshold. The returned float64 is that effective threshold in
// seconds — the largest bucket bound not exceeding the request; when the
// threshold sits under every bound, the first bound is used (the least-
// loose option available).
func LatencySource(h *obs.Histogram, threshold time.Duration) (Source, float64) {
	bounds := h.Snapshot().Bounds
	eff := quantizeThreshold(bounds, threshold.Seconds())
	return func() (good, total uint64) {
		s := h.Snapshot()
		return s.CountAtOrBelow(eff), s.Count
	}, eff
}

func quantizeThreshold(bounds []float64, want float64) float64 {
	if len(bounds) == 0 {
		return want
	}
	eff := bounds[0]
	for _, b := range bounds {
		if b > want {
			break
		}
		eff = b
	}
	return eff
}

// AvailabilitySource adapts cumulative total/error counters into a Source.
// good is clamped at zero if errors momentarily outrun the total (the two
// reads are not atomic with each other).
func AvailabilitySource(total, errs func() uint64) Source {
	return func() (good, tot uint64) {
		t, e := total(), errs()
		if e > t {
			e = t
		}
		return t - e, t
	}
}

// Trip describes one watchdog firing.
type Trip struct {
	Objective string    `json:"objective"`
	Endpoint  string    `json:"endpoint"`
	At        time.Time `json:"at"`
	FastBurn  float64   `json:"fast_burn"`
	SlowBurn  float64   `json:"slow_burn"`
	Threshold float64   `json:"threshold"`
}

// Config shapes a Tracker. Zero values take the documented defaults.
type Config struct {
	FastWindow    time.Duration // default 5m
	SlowWindow    time.Duration // default 1h
	SampleEvery   time.Duration // default 10s
	BurnThreshold float64       // default 14.4
	// MinEvents is the minimum event delta a window needs before it can
	// contribute to a trip; keeps one bad request at startup from firing
	// the watchdog. Default 20.
	MinEvents uint64
	// TripCooldown bounds how often one objective may trip. Default 10m.
	TripCooldown time.Duration
	// OnTrip is invoked synchronously from Sample when an objective's fast
	// AND slow burn rates cross BurnThreshold. Wire slow work (profile
	// capture) through a goroutine.
	OnTrip func(Trip)
	// Now is the clock; tests substitute a fake. Default time.Now.
	Now func() time.Time
}

func (c *Config) fill() {
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = time.Hour
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 10 * time.Second
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = 14.4
	}
	if c.MinEvents == 0 {
		c.MinEvents = 20
	}
	if c.TripCooldown <= 0 {
		c.TripCooldown = 10 * time.Minute
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// sample is one cumulative reading.
type sample struct {
	t           time.Time
	good, total uint64
}

// objectiveState is an objective plus its sample ring and metric handles.
type objectiveState struct {
	obj          Objective
	effThreshold float64 // quantized latency bound in seconds; 0 for availability
	src          Source

	ring      []sample // chronological; trimmed to the slow window
	trips     uint64
	lastTrip  time.Time
	breaching bool

	fastBurnG, slowBurnG     *obs.Gauge
	fastBudgetG, slowBudgetG *obs.Gauge
	breachG                  *obs.Gauge
	tripsC                   *obs.Counter
}

// Tracker samples objectives and computes multi-window burn rates. All
// methods are safe for concurrent use; Sample and Status serialize on one
// mutex (they run a few times a minute, off the serving path).
type Tracker struct {
	cfg Config

	mu   sync.Mutex
	objs []*objectiveState

	burnVec   *obs.GaugeVec
	budgetVec *obs.GaugeVec
	breachVec *obs.GaugeVec
	targetVec *obs.GaugeVec
	tripsVec  *obs.CounterVec
	samples   *obs.Counter
}

const (
	windowFast = "fast"
	windowSlow = "slow"
)

// NewTracker creates a tracker and registers the caar_slo_ metric families
// on reg (a private registry when nil).
func NewTracker(cfg Config, reg *obs.Registry) *Tracker {
	cfg.fill()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &Tracker{
		cfg: cfg,
		burnVec: reg.GaugeVec("caar_slo_burn_rate_ratio",
			"Error-budget burn rate per objective and window; 1 consumes the budget exactly at the sustainable rate.",
			"objective", "window"),
		budgetVec: reg.GaugeVec("caar_slo_budget_remaining_ratio",
			"Fraction of the window's error budget left; negative when overspent.",
			"objective", "window"),
		breachVec: reg.GaugeVec("caar_slo_breaching",
			"1 while both burn windows exceed the trip threshold.", "objective"),
		targetVec: reg.GaugeVec("caar_slo_target_ratio",
			"Declared SLO target per objective.", "objective"),
		tripsVec: reg.CounterVec("caar_slo_trips_total",
			"Watchdog trips per objective (rate-limited by the cooldown).", "objective"),
		samples: reg.Counter("caar_slo_samples_total",
			"Sampling ticks taken across all objectives."),
	}
	return t
}

// Add registers an objective with its count source. The effective latency
// threshold (bucket-quantized) should come from LatencySource; pass 0 for
// availability objectives.
func (t *Tracker) Add(obj Objective, src Source, effThreshold float64) error {
	if err := obj.validate(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.objs {
		if st.obj.Name == obj.Name {
			return fmt.Errorf("slo: duplicate objective %q", obj.Name)
		}
	}
	st := &objectiveState{
		obj:          obj,
		effThreshold: effThreshold,
		src:          src,
		fastBurnG:    t.burnVec.With(obj.Name, windowFast),
		slowBurnG:    t.burnVec.With(obj.Name, windowSlow),
		fastBudgetG:  t.budgetVec.With(obj.Name, windowFast),
		slowBudgetG:  t.budgetVec.With(obj.Name, windowSlow),
		breachG:      t.breachVec.With(obj.Name),
		tripsC:       t.tripsVec.With(obj.Name),
	}
	st.fastBudgetG.Set(1)
	st.slowBudgetG.Set(1)
	t.targetVec.With(obj.Name).Set(obj.Target)
	t.objs = append(t.objs, st)
	return nil
}

// Run samples on the configured cadence until ctx is done. Call from a
// dedicated goroutine.
func (t *Tracker) Run(done <-chan struct{}) {
	ticker := time.NewTicker(t.cfg.SampleEvery)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			t.Sample(t.cfg.Now())
		}
	}
}

// Sample takes one reading of every objective, updates the burn-rate
// metrics, and fires OnTrip for objectives whose fast and slow windows both
// burn above the threshold (subject to the cooldown). Exported so tests and
// harnesses can drive the tracker with a synthetic clock.
func (t *Tracker) Sample(now time.Time) {
	var trips []Trip
	t.mu.Lock()
	t.samples.Inc()
	for _, st := range t.objs {
		good, total := st.src()
		st.push(now, good, total, t.cfg.SlowWindow)

		fast := st.window(now, t.cfg.FastWindow, st.obj.Target)
		slow := st.window(now, t.cfg.SlowWindow, st.obj.Target)
		st.fastBurnG.Set(fast.BurnRate)
		st.slowBurnG.Set(slow.BurnRate)
		st.fastBudgetG.Set(fast.BudgetRemaining)
		st.slowBudgetG.Set(slow.BudgetRemaining)

		eligible := fast.events() >= t.cfg.MinEvents && slow.events() >= t.cfg.MinEvents
		st.breaching = eligible &&
			fast.BurnRate >= t.cfg.BurnThreshold && slow.BurnRate >= t.cfg.BurnThreshold
		if st.breaching {
			st.breachG.Set(1)
			if now.Sub(st.lastTrip) >= t.cfg.TripCooldown {
				st.lastTrip = now
				st.trips++
				st.tripsC.Inc()
				trips = append(trips, Trip{
					Objective: st.obj.Name,
					Endpoint:  st.obj.Endpoint,
					At:        now,
					FastBurn:  fast.BurnRate,
					SlowBurn:  slow.BurnRate,
					Threshold: t.cfg.BurnThreshold,
				})
			}
		} else {
			st.breachG.Set(0)
		}
	}
	onTrip := t.cfg.OnTrip
	t.mu.Unlock()

	if onTrip != nil {
		for _, trip := range trips {
			onTrip(trip)
		}
	}
}

// push appends a reading, resetting the ring on counter regression and
// trimming samples older than the slow window (plus one baseline sample at
// the far edge, which window() differences against).
func (st *objectiveState) push(now time.Time, good, total uint64, slowWindow time.Duration) {
	if n := len(st.ring); n > 0 {
		last := st.ring[n-1]
		if total < last.total || good < last.good {
			st.ring = st.ring[:0] // counter reset (restart / collector swap)
		}
	}
	st.ring = append(st.ring, sample{t: now, good: good, total: total})
	edge := now.Add(-slowWindow)
	// Keep the newest sample at or before the edge as the slow baseline.
	cut := 0
	for i, s := range st.ring {
		if s.t.Before(edge) || s.t.Equal(edge) {
			cut = i
		} else {
			break
		}
	}
	if cut > 0 {
		st.ring = append(st.ring[:0], st.ring[cut:]...)
	}
}

// WindowStatus is the burn computation over one alerting window.
type WindowStatus struct {
	Window          string  `json:"window"` // "fast" or "slow"
	Seconds         float64 `json:"seconds"`
	Good            uint64  `json:"good"`
	Total           uint64  `json:"total"`
	BadRatio        float64 `json:"bad_ratio"`
	BurnRate        float64 `json:"burn_rate"`
	BudgetRemaining float64 `json:"budget_remaining"`
	// Complete reports whether the samples fully cover the window; false
	// early in a process's life, when the burn is computed over the data
	// available so far.
	Complete bool `json:"complete"`
}

func (w WindowStatus) events() uint64 { return w.Total }

// window differences the newest sample against the one at the window's far
// edge. An empty or single-sample ring yields zero burn and Complete=false
// — no data is not an anomaly.
func (st *objectiveState) window(now time.Time, w time.Duration, target float64) WindowStatus {
	ws := WindowStatus{Seconds: w.Seconds(), BudgetRemaining: 1}
	if len(st.ring) < 2 {
		return ws
	}
	cur := st.ring[len(st.ring)-1]
	edge := now.Add(-w)
	base := st.ring[0]
	for _, s := range st.ring[1:] {
		if s.t.After(edge) {
			break
		}
		base = s
	}
	if !base.t.After(edge) {
		ws.Complete = true
	}
	if base.t.Equal(cur.t) {
		return ws
	}
	total := cur.total - base.total
	good := cur.good - base.good
	if good > total { // concurrent-read skew
		good = total
	}
	ws.Good, ws.Total = good, total
	if total == 0 {
		return ws
	}
	ws.BadRatio = float64(total-good) / float64(total)
	budget := 1 - target
	ws.BurnRate = ws.BadRatio / budget
	ws.BudgetRemaining = 1 - ws.BurnRate
	return ws
}

// ObjectiveStatus is one objective's entry in the /v1/slo report.
type ObjectiveStatus struct {
	Name                      string         `json:"name"`
	Endpoint                  string         `json:"endpoint"`
	Kind                      Kind           `json:"kind"`
	Target                    float64        `json:"target"`
	ThresholdSeconds          float64        `json:"threshold_seconds,omitempty"`
	EffectiveThresholdSeconds float64        `json:"effective_threshold_seconds,omitempty"`
	Windows                   []WindowStatus `json:"windows"`
	Breaching                 bool           `json:"breaching"`
	Trips                     uint64         `json:"trips"`
	LastTripAt                *time.Time     `json:"last_trip_at,omitempty"`
}

// Status is the full /v1/slo document.
type Status struct {
	SampledAt     time.Time         `json:"sampled_at"`
	BurnThreshold float64           `json:"burn_threshold"`
	FastWindow    string            `json:"fast_window"`
	SlowWindow    string            `json:"slow_window"`
	Objectives    []ObjectiveStatus `json:"objectives"`
}

// Status reports every objective's windows as of the latest sample. It
// does not re-read sources; call Sample first for a fresh reading.
func (t *Tracker) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := Status{
		BurnThreshold: t.cfg.BurnThreshold,
		FastWindow:    t.cfg.FastWindow.String(),
		SlowWindow:    t.cfg.SlowWindow.String(),
	}
	for _, st := range t.objs {
		if n := len(st.ring); n > 0 && st.ring[n-1].t.After(out.SampledAt) {
			out.SampledAt = st.ring[n-1].t
		}
	}
	for _, st := range t.objs {
		now := out.SampledAt
		if now.IsZero() && len(st.ring) > 0 {
			now = st.ring[len(st.ring)-1].t
		}
		fast := st.window(now, t.cfg.FastWindow, st.obj.Target)
		fast.Window = windowFast
		slow := st.window(now, t.cfg.SlowWindow, st.obj.Target)
		slow.Window = windowSlow
		os := ObjectiveStatus{
			Name:                      st.obj.Name,
			Endpoint:                  st.obj.Endpoint,
			Kind:                      st.obj.Kind,
			Target:                    st.obj.Target,
			ThresholdSeconds:          st.obj.Threshold.Seconds(),
			EffectiveThresholdSeconds: st.effThreshold,
			Windows:                   []WindowStatus{fast, slow},
			Breaching:                 st.breaching,
			Trips:                     st.trips,
		}
		if !st.lastTrip.IsZero() {
			lt := st.lastTrip
			os.LastTripAt = &lt
		}
		out.Objectives = append(out.Objectives, os)
	}
	sort.Slice(out.Objectives, func(i, j int) bool {
		return out.Objectives[i].Name < out.Objectives[j].Name
	})
	return out
}

// ParseObjectives parses the -slo flag syntax: a comma-separated list of
// "endpoint:latencyThreshold:target" (latency objective) or
// "endpoint:errors:target" (availability objective) entries, e.g.
//
//	/v1/recommendations:250ms:0.99,/v1/posts:250ms:0.99,/v1/recommendations:errors:0.999
//
// Objective names are derived from the endpoint and kind.
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	seen := map[string]bool{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		parts := strings.Split(field, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("slo: bad objective %q (want endpoint:threshold:target or endpoint:errors:target)", field)
		}
		endpoint, kindOrDur, targetStr := parts[0], parts[1], parts[2]
		target, err := strconv.ParseFloat(targetStr, 64)
		if err != nil {
			return nil, fmt.Errorf("slo: bad target in %q: %v", field, err)
		}
		obj := Objective{Endpoint: endpoint, Target: target}
		if kindOrDur == "errors" {
			obj.Kind = KindAvailability
			obj.Name = derivedName(endpoint, "errors")
		} else {
			d, err := time.ParseDuration(kindOrDur)
			if err != nil {
				return nil, fmt.Errorf("slo: bad threshold in %q: %v", field, err)
			}
			obj.Kind = KindLatency
			obj.Threshold = d
			obj.Name = derivedName(endpoint, "latency-"+d.String())
		}
		if err := obj.validate(); err != nil {
			return nil, err
		}
		if seen[obj.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q in spec", obj.Name)
		}
		seen[obj.Name] = true
		out = append(out, obj)
	}
	return out, nil
}

func derivedName(endpoint, suffix string) string {
	name := strings.TrimPrefix(endpoint, "/v1/")
	name = strings.Trim(strings.ReplaceAll(name, "/", "-"), "-")
	if name == "" {
		name = "root"
	}
	return name + "-" + suffix
}

// DefaultObjectivesSpec is the -slo default: tail-latency and availability
// objectives on the two paths the paper's workload hammers.
const DefaultObjectivesSpec = "/v1/recommendations:250ms:0.99," +
	"/v1/posts:250ms:0.99,/v1/recommendations:errors:0.999"
