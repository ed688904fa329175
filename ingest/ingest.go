// Package ingest is the batched asynchronous write path: it decouples
// accepting a post or check-in from applying it. Requests enter a bounded
// lock-free MPSC ring; a single committer goroutine drains them in batches
// and group-commits each batch to the journal — journal-first, ONE fsync per
// batch instead of one per append — acking every request only after its
// batch's fsync. A separate applier then fans each committed batch out to
// the engine shards in grouped deliveries (Engine.PostBatch/CheckInBatch:
// many follower windows per shard-lock acquisition).
//
// The acknowledgement contract: a nil return from SubmitPost/SubmitCheckIn
// means the write is durable per the journal's sync policy and will be
// applied; the apply itself is asynchronous, so a read raced immediately
// after the ack may not observe the write yet. Submission-time validation
// (unknown user, out-of-region point) re-derives the same rejections the
// synchronous path returns, and a time the journal cannot encode is refused
// too, so that it cannot fail its batch-mates' commit. Post-ack apply errors
// are therefore an anomaly — they are counted in
// caar_ingest_apply_errors_total and re-derived identically by journal
// replay after a crash.
//
// Backpressure: a full ring fails fast with ErrQueueFull — the HTTP layer
// turns it into 429 + Retry-After — so overload surfaces at the edge instead
// of requests piling up on shard locks.
package ingest

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	caar "caar"
	"caar/internal/ring"
	"caar/internal/timeslot"
	"caar/journal"
	"caar/obs"
)

// ErrQueueFull is returned when the ingest ring is at capacity; callers
// should retry after backing off (HTTP 429).
var ErrQueueFull = errors.New("ingest: queue full, retry later")

// ErrClosed is returned for writes submitted after Close began.
var ErrClosed = errors.New("ingest: pipeline closed")

// Engine is the slice of *caar.Engine the pipeline uses: lock-free
// submission-time validation plus the batched apply entry points.
type Engine interface {
	ValidateUser(handle string) error
	ValidateCheckIn(user string, lat, lng float64) error
	PostBatch([]caar.PostRequest) []error
	CheckInBatch([]caar.CheckInRequest) []error
}

// Journal is the slice of *journal.Writer the committer uses: group commit
// plus the idle-tail flush for interval fsync policies.
type Journal interface {
	AppendBatch([]journal.Entry) error
	SyncPending() error
}

// Config sizes the pipeline. Zero values select the defaults.
type Config struct {
	// QueueSize is the ring capacity, rounded up to a power of two.
	// Default 4096.
	QueueSize int
	// MaxBatch caps entries per group commit. Default 256.
	MaxBatch int
	// IdleSync is the cadence of the idle-tail flush: with an interval
	// fsync policy, records acked inside the interval window are only
	// synced by the next append, so an idle committer flushes them via
	// Journal.SyncPending. Default 100ms.
	IdleSync time.Duration
}

// applyDepth is how many committed batches may queue ahead of the applier
// before the committer blocks (which in turn backs up the ring into 429s).
const applyDepth = 4

func (c *Config) setDefaults() {
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.IdleSync <= 0 {
		c.IdleSync = 100 * time.Millisecond
	}
}

// item is one accepted write waiting for its group commit; errc (capacity 1)
// carries the single acknowledgement back to the blocked submitter. The
// committer touches an item only before it acks it, so the submitter that
// took the ack reuses the item, channel and all (items).
type item struct {
	entry journal.Entry
	errc  chan error
}

// items holds the items no submitter is using.
var items = sync.Pool{New: func() any { return &item{errc: make(chan error, 1)} }}

// Pipeline is the asynchronous ingest path. Create with New, shut down with
// Close; Submit methods are safe for concurrent use.
type Pipeline struct {
	eng Engine
	jw  Journal
	cfg Config
	m   *metrics

	ring   *ring.Ring[*item]
	wake   chan struct{}        // nudges the committer after a push
	applyq chan []journal.Entry // committed batches awaiting fan-out
	stop   chan struct{}        // closed by Close after producers drain
	done   chan struct{}        // closed when the applier exits

	// free hands applied batches' entries back to the committer for reuse:
	// one for each batch applyq holds and one for the batch being applied.
	free chan []journal.Entry

	closed    atomic.Bool
	producers atomic.Int64 // submitters between the closed-check and their push
}

// New starts the pipeline: one committer goroutine (ring → journal) and one
// applier goroutine (journal → shards, preserving commit order). Metrics
// land on reg under caar_ingest_*; a nil reg keeps them private.
func New(eng Engine, jw Journal, reg *obs.Registry, cfg Config) *Pipeline {
	cfg.setDefaults()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Pipeline{
		eng:    eng,
		jw:     jw,
		cfg:    cfg,
		ring:   ring.New[*item](cfg.QueueSize),
		wake:   make(chan struct{}, 1),
		applyq: make(chan []journal.Entry, applyDepth),
		free:   make(chan []journal.Entry, applyDepth+1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	p.m = newMetrics(reg, func() float64 { return float64(p.ring.Depth()) })
	go p.committer()
	go p.applier()
	return p
}

// SubmitPost validates, enqueues and waits for the durable acknowledgement
// of one post. ErrQueueFull means the ring is at capacity (retry later); a
// journal error means the write is NOT durable and was not applied.
func (p *Pipeline) SubmitPost(author, text string, at time.Time) error {
	if err := p.eng.ValidateUser(author); err != nil {
		return err
	}
	return p.submit(journal.PostEntry(author, text, at))
}

// SubmitCheckIn validates, enqueues and waits for the durable
// acknowledgement of one check-in.
func (p *Pipeline) SubmitCheckIn(user string, lat, lng float64, at time.Time) error {
	if err := p.eng.ValidateCheckIn(user, lat, lng); err != nil {
		return err
	}
	return p.submit(journal.CheckInEntry(user, lat, lng, at))
}

func (p *Pipeline) submit(e journal.Entry) error {
	if err := timeslot.CheckTime(e.At); err != nil {
		return err
	}
	// The producer count brackets only the closed-check-to-push window so
	// Close can wait for racing pushes before the final drain; the ack wait
	// below is outside it (those items are already in the ring and will be
	// drained and acked by the committer's shutdown pass).
	p.producers.Add(1)
	if p.closed.Load() {
		p.producers.Add(-1)
		return ErrClosed
	}
	it := items.Get().(*item)
	it.entry = e
	pushed := p.ring.Push(it)
	p.producers.Add(-1)
	if !pushed {
		it.entry = journal.Entry{}
		items.Put(it)
		p.m.rejected.Inc()
		return ErrQueueFull
	}
	p.m.accepted.Inc()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	start := time.Now()
	err := <-it.errc
	p.m.ackSeconds.ObserveDuration(time.Since(start))
	it.entry = journal.Entry{}
	items.Put(it)
	return err
}

// Close stops accepting writes, drains everything already accepted through
// commit AND apply, and returns when both background goroutines have
// exited. Every accepted write is acknowledged before Close returns — the
// crash-recovery ack ledger depends on no submitter being left blocked.
// Safe to call more than once.
func (p *Pipeline) Close() error {
	if !p.closed.Swap(true) {
		// Let racing submitters finish their push (or bail on the closed
		// flag) so the shutdown drain below sees every accepted item.
		for p.producers.Load() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
		close(p.stop)
	}
	<-p.done
	return nil
}

// committer is the single ring consumer: drain up to MaxBatch, group-commit,
// ack, hand the batch to the applier. An empty ring parks on the wake signal
// with an idle timer that flushes deferred interval-policy fsyncs.
func (p *Pipeline) committer() {
	timer := time.NewTimer(p.cfg.IdleSync)
	defer timer.Stop()
	var batch []*item // reused: commit is done with a batch before the next is drained
	for {
		batch = p.drainBatch(batch[:0])
		if len(batch) == 0 {
			select {
			case <-p.wake:
				continue
			case <-p.stop:
				// Shutdown drain: commit everything accepted before the
				// producers quiesced, then let the applier finish.
				for {
					if batch = p.drainBatch(batch[:0]); len(batch) == 0 {
						break
					}
					p.commit(batch)
				}
				close(p.applyq)
				return
			case <-timer.C:
				// Idle tail: records acked inside an interval-policy window
				// have no next append to sync them — flush here. Errors flip
				// the writer's degraded flag, surfaced by readiness.
				p.jw.SyncPending() //nolint:errcheck // degraded state carries the failure
				timer.Reset(p.cfg.IdleSync)
				continue
			}
		}
		p.commit(batch)
	}
}

// drainBatch pops up to MaxBatch items, appended to dst.
func (p *Pipeline) drainBatch(dst []*item) []*item {
	for len(dst) < p.cfg.MaxBatch {
		it, ok := p.ring.Pop()
		if !ok {
			break
		}
		dst = append(dst, it)
	}
	return dst
}

// commit group-commits one batch: a single AppendBatch (one fsync, policy
// permitting), then acks every submitter, then queues the batch for apply.
// On a journal error nothing is applied and every submitter receives the
// error — the journal-first contract: no state the log does not contain.
func (p *Pipeline) commit(batch []*item) {
	var entries []journal.Entry
	select {
	case entries = <-p.free: // an applied batch's, cleared
	default:
	}
	for _, it := range batch {
		entries = append(entries, it.entry)
	}
	start := time.Now()
	err := p.jw.AppendBatch(entries)
	p.m.commitSeconds.ObserveDuration(time.Since(start))
	p.m.lastBatch.Set(float64(len(batch)))
	if err != nil {
		for _, it := range batch {
			it.errc <- err
		}
		return
	}
	for _, it := range batch {
		it.errc <- nil
	}
	// Bounded hand-off: when the applier lags applyDepth batches behind,
	// this blocks, the ring fills, and the edge sheds load with 429s.
	p.applyq <- entries
}

// applier fans committed batches out to the shards in commit order, through
// journal.Applier — the mapping replay uses — so posts and check-ins keep
// their relative order while applying through the grouped batch entry points,
// and hands each batch's entries back to the committer (free).
func (p *Pipeline) applier() {
	defer close(p.done)
	var ap journal.Applier
	for entries := range p.applyq {
		p.countApply(ap.ApplyRuns(p.eng, entries))
		clear(entries) // the texts
		select {
		case p.free <- entries[:0]:
		default:
		}
	}
}

func (p *Pipeline) countApply(errs []error) {
	ok := 0
	for _, err := range errs {
		if err != nil {
			p.m.applyErrors.Inc()
			continue
		}
		ok++
	}
	p.m.applied.Add(uint64(ok))
}
