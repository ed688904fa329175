package trace

import (
	"math"
	"sync/atomic"
	"time"

	"caar/obs"
)

// DefaultCapacity is the ring-buffer size when Config.Capacity is zero.
const DefaultCapacity = 512

// Config shapes a Store's capture policy.
type Config struct {
	// Capacity is the ring-buffer size; the store retains the most recent
	// Capacity captured traces. 0 uses DefaultCapacity.
	Capacity int
	// SampleRate is the head-sampling fraction of ordinary requests to keep:
	// 1 keeps every request, 0 keeps none (slow/errored/forced requests are
	// still captured). Sampling is deterministic — every ⌈1/rate⌉-th request
	// — so low-QPS deployments still accumulate traces.
	SampleRate float64
	// SlowThreshold captures any request at least this slow regardless of
	// sampling (tail capture). 0 disables the slow path.
	SlowThreshold time.Duration
}

// Store is a concurrency-safe fixed-capacity ring buffer of captured
// traces. Add decides capture (head sampling plus unconditional slow/error
// tail capture) and evicts the oldest trace once full.
//
// The ring is lock-free: Add claims a slot with one atomic increment and
// publishes the trace with one atomic store, so capturing every request
// (SampleRate 1) adds no lock a preempted holder could stall the serving
// path on. The price is paid on the operator side — Get scans the ring
// linearly and List may observe slots mid-rotation — which is the right
// trade: /v1/traces is read by a human a few times a minute, Add runs on
// every request.
type Store struct {
	capacity int
	period   uint64 // keep every period-th request (head sampling)
	slow     time.Duration

	sampleCtr atomic.Uint64

	// capture accounting, exposed through RegisterMetrics: every Add lands
	// in exactly one of the five.
	dropped     atomic.Uint64
	keptSampled atomic.Uint64
	keptSlow    atomic.Uint64
	keptError   atomic.Uint64
	keptForced  atomic.Uint64

	// inserted counts slot claims; slot i of the ring holds the
	// (inserted-capacity+i)-th capture until overwritten.
	inserted atomic.Uint64
	buf      []atomic.Pointer[Trace]
}

// NewStore creates a trace store with the given capture policy.
func NewStore(cfg Config) *Store {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	var period uint64
	switch {
	case cfg.SampleRate >= 1:
		period = 1
	case cfg.SampleRate <= 0:
		period = 0 // head sampling off
	default:
		period = uint64(math.Ceil(1 / cfg.SampleRate))
	}
	return &Store{
		capacity: capacity,
		period:   period,
		slow:     cfg.SlowThreshold,
		buf:      make([]atomic.Pointer[Trace], capacity),
	}
}

// SampleNext reports whether head sampling admits the next request. It
// advances the deterministic sampling counter: with rate r, every
// ⌈1/r⌉-th request is admitted, starting with the first.
func (s *Store) SampleNext() bool {
	if s.period == 0 {
		return false
	}
	if s.period == 1 {
		return true
	}
	return (s.sampleCtr.Add(1)-1)%s.period == 0
}

// Add decides whether to capture a finished trace and, when captured,
// stores it (evicting the oldest once the ring is full) and reports true.
// Slow and errored traces bypass the sampling decision; Forced traces
// (explain requests) are always captured. The trace must not be mutated
// after Add returns true.
func (s *Store) Add(t *Trace) bool {
	var reason string
	switch {
	case t.Forced:
		reason = ReasonExplain
		s.keptForced.Add(1)
	case t.Outcome == OutcomeError:
		reason = ReasonError
		s.keptError.Add(1)
	case s.slow > 0 && t.DurationSeconds >= s.slow.Seconds():
		reason = ReasonSlow
		s.keptSlow.Add(1)
	case t.HeadSampled:
		reason = ReasonSampled
		s.keptSampled.Add(1)
	default:
		s.dropped.Add(1)
		return false
	}
	t.CaptureReason = reason

	// Claim a slot, overwrite whatever is there. The evicted trace stays
	// valid for readers that already loaded its pointer.
	slot := (s.inserted.Add(1) - 1) % uint64(s.capacity)
	s.buf[slot].Store(t)
	return true
}

// Get returns the stored trace with the given ID, or nil. The lookup scans
// the ring newest-first, so a reused request ID resolves to the latest
// capture.
func (s *Store) Get(id string) *Trace {
	total, newest := s.snapshot()
	for i := 0; i < total; i++ {
		t := s.buf[(newest-i+total)%total].Load()
		if t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

// List returns up to n stored traces, newest first. n <= 0 returns all.
// Concurrent captures may rotate the ring mid-scan; the listing is a best-
// effort snapshot, which is fine for an operator endpoint.
func (s *Store) List(n int) []*Trace {
	total, newest := s.snapshot()
	if n <= 0 || n > total {
		n = total
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		if t := s.buf[(newest-i+total)%total].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// snapshot returns the resident-trace count and the newest slot's index.
func (s *Store) snapshot() (total, newest int) {
	ins := s.inserted.Load()
	if ins == 0 {
		return 0, 0
	}
	total = s.capacity
	if ins < uint64(s.capacity) {
		total = int(ins)
	}
	newest = int((ins - 1) % uint64(s.capacity))
	return total, newest
}

// Len returns the number of resident traces.
func (s *Store) Len() int {
	total, _ := s.snapshot()
	return total
}

// Capacity returns the ring-buffer size — the hard ceiling on retained
// traces, which the soak harness checks stays respected across crash
// cycles.
func (s *Store) Capacity() int { return s.capacity }

// RegisterMetrics exposes the store's capture accounting on reg. Traces
// captured are the sum of the four caar_trace_captured_<reason>_total
// families; traces considered, that plus caar_trace_dropped_total.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("caar_trace_dropped_total",
		"Finished traces dropped by head sampling.", s.dropped.Load)
	reg.CounterFunc("caar_trace_captured_sampled_total",
		"Traces captured by head sampling.", s.keptSampled.Load)
	reg.CounterFunc("caar_trace_captured_slow_total",
		"Traces tail-captured for exceeding the slow threshold.", s.keptSlow.Load)
	reg.CounterFunc("caar_trace_captured_errors_total",
		"Traces tail-captured because the request failed.", s.keptError.Load)
	reg.CounterFunc("caar_trace_captured_forced_total",
		"Traces captured because the request asked for an explanation.", s.keptForced.Load)
	reg.GaugeFunc("caar_trace_store_traces",
		"Traces resident in the ring buffer.", func() float64 {
			return float64(s.Len())
		})
}
