package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/internal/server"
	"caar/journal"
	"caar/obs/trace"
)

// spanRec is one recorded span. Times are nanoseconds since the tracer was
// created. Parent is the index of the enclosing span, -1 for a root and for
// asynchronous spans, which are tied to their operation by Op alone.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Async  bool   `json:"async,omitempty"`
}

// tracer records spans at the layer seams. The traced run has one client, so
// at any moment one operation is in flight and its synchronous spans nest:
// the innermost open span is the parent of the next one to open, whichever
// goroutine opens it. Apply work that continues after the acknowledgement is
// recorded as asynchronous and matched to its operation by the post's
// timestamp, which is unique per op.
type tracer struct {
	// on gates recording, so traced and untraced segments can alternate on
	// one serving stack; off, a decorator costs one atomic load.
	on atomic.Bool

	mu     sync.Mutex
	epoch  time.Time
	spans  []spanRec
	stack  []int32
	op     int32
	byAt   map[int64]int32
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]spanRec, 0, 1<<18),
		op:     -1,
		byAt:   make(map[int64]int32),
		counts: make(map[string]int64),
	}
}

// recording reports whether spans are being kept; a nil tracer (the untraced
// run) never records, so call sites need no guard of their own.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// beginOp opens the root span of the next operation; at is the timestamp the
// op carries, for matching asynchronous work to it.
func (t *tracer) beginOp(name string, at time.Time) int32 {
	if !t.recording() {
		return -1
	}
	t.mu.Lock()
	t.op++
	t.byAt[at.UnixNano()] = t.op
	t.mu.Unlock()
	return t.begin(name)
}

func (t *tracer) begin(name string) int32 {
	if !t.recording() {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{Name: name, Start: now, Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	t.counts[name]++
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// async records a finished span that ran outside the request's critical
// path, tied to the op whose timestamp is at.
func (t *tracer) async(name string, start, end time.Time, at time.Time) {
	if !t.recording() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	op, ok := t.byAt[at.UnixNano()]
	if !ok {
		op = -1
	}
	t.spans = append(t.spans, spanRec{
		Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: -1, Op: op, Async: true,
	})
	t.counts[name]++
}

func (t *tracer) count(name string, n int64) {
	if !t.recording() {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// layerOf is the span name up to its first dot: the layer the time is
// charged to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time of its synchronous
// spans in seconds (a span's duration minus its direct children's), and the
// summed duration of asynchronous spans under "async:<layer>".
func selfTimes(spans []spanRec) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && !s.Async {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		d := s.End - s.Start
		if s.Async {
			out["async:"+layerOf(s.Name)] += float64(d) * 1e-9
			continue
		}
		out[layerOf(s.Name)] += float64(d-child[i]) * 1e-9
	}
	return out
}

// rootTime is the summed duration of root synchronous spans in seconds.
func rootTime(spans []spanRec) float64 {
	var total int64
	for _, s := range spans {
		if s.Parent < 0 && !s.Async {
			total += s.End - s.Start
		}
	}
	return float64(total) * 1e-9
}

// writeFile writes one JSON object per span, then one with the boundary
// counts, and returns the bytes written.
func (t *tracer) writeFile(path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("span file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return 0, fmt.Errorf("span file: %w", err)
		}
	}
	if err := enc.Encode(map[string]any{"counts": t.counts}); err != nil {
		return 0, fmt.Errorf("span file: %w", err)
	}
	if err := w.Flush(); err != nil {
		return 0, fmt.Errorf("span file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("span file: %w", err)
	}
	return st.Size(), f.Close()
}

// The decorators below put a span around every call that crosses a layer
// seam. Each wraps an interface the layers already use to talk to each
// other, so the program under test is unchanged.

// tracedHandler spans the whole HTTP handler chain.
type tracedHandler struct {
	next http.Handler
	t    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.t.begin("server.handler")
	h.next.ServeHTTP(w, r)
	h.t.end(id)
}

// tracedAPI spans the engine calls the benchmark's requests reach. It embeds
// *journal.Logged so the server still finds the optional interfaces
// (TraceAPI, PolicyAPI) it type-asserts for.
type tracedAPI struct {
	*journal.Logged
	t *tracer
}

var _ server.API = tracedAPI{}

func (a tracedAPI) Recommend(user string, k int, at time.Time) ([]caar.Recommendation, error) {
	id := a.t.begin("engine.recommend")
	defer a.t.end(id)
	return a.Logged.Recommend(user, k, at)
}

func (a tracedAPI) RecommendTraced(user string, k int, at time.Time, p caar.ServingPolicy, tr caar.TraceRequest) ([]caar.Recommendation, *trace.Trace, error) {
	id := a.t.begin("engine.recommend")
	defer a.t.end(id)
	return a.Logged.RecommendTraced(user, k, at, p, tr)
}

// tracedQueue spans the accept → durable-ack wait of the ingest pipeline.
type tracedQueue struct {
	next server.IngestQueue
	t    *tracer
}

func (q tracedQueue) SubmitPost(author, text string, at time.Time) error {
	id := q.t.begin("ingest.submit")
	defer q.t.end(id)
	return q.next.SubmitPost(author, text, at)
}

func (q tracedQueue) SubmitCheckIn(user string, lat, lng float64, at time.Time) error {
	id := q.t.begin("ingest.submit")
	defer q.t.end(id)
	return q.next.SubmitCheckIn(user, lat, lng, at)
}

// tracedJournal spans the group commit. It runs on the committer goroutine
// while the submitter waits, so it nests under ingest.submit.
type tracedJournal struct {
	next ingest.Journal
	t    *tracer
}

func (j tracedJournal) AppendBatch(entries []journal.Entry) error {
	id := j.t.begin("journal.appendbatch")
	defer j.t.end(id)
	j.t.count("journal.entries", int64(len(entries)))
	return j.next.AppendBatch(entries)
}

func (j tracedJournal) SyncPending() error { return j.next.SyncPending() }

// tracedApply spans the applier's batched fan-out, which runs after the
// acknowledgement: asynchronous, matched to its op by the first entry's At.
type tracedApply struct {
	ingest.Engine
	t *tracer
}

func (e tracedApply) PostBatch(reqs []caar.PostRequest) []error {
	start := time.Now()
	errs := e.Engine.PostBatch(reqs)
	e.t.async("engine.postbatch", start, time.Now(), reqs[0].At)
	e.t.count("engine.posts_applied", int64(len(reqs)))
	return errs
}

func (e tracedApply) CheckInBatch(reqs []caar.CheckInRequest) []error {
	start := time.Now()
	errs := e.Engine.CheckInBatch(reqs)
	e.t.async("engine.checkinbatch", start, time.Now(), reqs[0].At)
	return errs
}
