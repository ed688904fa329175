package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/internal/server"
	"caar/journal"
)

// The four workloads. All are closed loops: a caller sends its next request
// when the previous one has been answered, because that is how the two
// consumers of this system behave (a stream processor calling Post, a feed
// renderer waiting for its ads), and because a closed loop on ≤ 2
// connections leaves a 2-vCPU box enough room to run generator and server in
// one process.
const (
	fanoutStream = "fanout_stream"
	readHTTP     = "read_http"
	writeHTTP    = "write_http"
	mixedHTTP    = "mixed_http"
)

var workloadNames = []string{fanoutStream, readHTTP, writeHTTP, mixedHTTP}

const (
	continuousK = 5  // fanout_stream: top-k refreshed for every affected follower
	recommendK  = 10 // HTTP reads
	// verifyOps is the length of the phase the write workloads run before
	// measuring, whose journal is replayed into a second engine to check
	// that the durable log reproduces the live state.
	verifyOps = 1000
)

// segmentOps is the fixed op count of one timed segment, sized so a segment
// lasts 0.1–0.2 s on the quiet box: short enough that the machine's speed is
// constant across it, long enough that the ~10 ms kernel stays under a tenth
// of the run.
var segmentOps = map[string]int{
	fanoutStream: 3 * checkInEvery,
	readHTTP:     600,
	writeHTTP:    220,
	mixedHTTP:    400,
}

// splitmix64 is the hash that turns (seed, op index) into a random draw, so
// the op sequence is a pure function of the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (f *fixture) randomUser(i int) string {
	return f.handles[splitmix64(uint64(f.seed)<<32^uint64(i))%uint64(len(f.handles))]
}

func (f *fixture) recommend(i int) op {
	return op{Kind: opRecommend, User: f.randomUser(i), At: f.t0.Add(time.Duration(i) * opGap)}
}

// streamOp is op i of the post stream with its interleaved check-ins; posts
// continue where the warm-up stopped.
func (f *fixture) streamOp(i int) op {
	if i%checkInEvery == checkInEvery-1 {
		return f.checkIn(f.cfg.WarmOps/checkInEvery+i/checkInEvery, i)
	}
	return f.post(f.cfg.WarmOps+i-i/checkInEvery, i)
}

// opAt is the i-th operation of a workload: a pure function of the fixture
// (hence of the seed) and i. With two connections, connection c sends the
// ops with i%2 == c.
func (f *fixture) opAt(kind string, i int) op {
	switch kind {
	case fanoutStream, writeHTTP:
		return f.streamOp(i)
	case readHTTP:
		o := f.recommend(i)
		o.At = f.t0 // reads all ask about one instant: nothing is written
		return o
	default: // mixedHTTP: each connection sends 9 GETs then 1 POST, the two half a cycle apart
		if m := i % 20; m == 9 || m == 18 {
			return f.post(f.cfg.WarmOps+2*(i/20)+m/18, i)
		}
		return f.recommend(i)
	}
}

// runner drives one workload against one fixture.
type runner struct {
	kind  string
	f     *fixture
	tr    *tracer // nil unless this is the traced run
	conns int

	env *httpEnv // nil for fanout_stream

	mu        sync.Mutex
	attempted int64
	failed    int64
	reason    string // first failed check
	connLat   [][]weighted
}

// httpEnv is the serving stack of cmd/adserver, assembled in-process:
// engine → journal.Logged → ingest pipeline → server → loopback listener.
type httpEnv struct {
	jf      *os.File
	jw      *journal.Writer
	ing     *ingest.Pipeline
	ts      *httptest.Server
	client  *http.Client
	stopHot chan struct{}
	hotDone chan struct{}

	// accepted counts acknowledged posts and check-ins; base is what the
	// engine had applied before this env existed.
	accepted int64
	base     uint64
	closed   bool
}

func newHTTPEnv(f *fixture, dir string, conns int, tr *tracer) (*httpEnv, error) {
	e := &httpEnv{stopHot: make(chan struct{}), hotDone: make(chan struct{})}
	jf, err := os.CreateTemp(dir, "journal-*.log")
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	e.jf = jf
	// SyncNever: the journal has to live inside the checkout, on the virtio
	// disk, whose fsync (p50 150 µs, max 600 µs here) would put a device no
	// code change moves, and the reference kernel cannot normalise, into
	// every write latency. The group commit still encodes, frames, writes
	// and flushes once per batch; fsync cost is probed apart
	// (journal.fsync_us_p50).
	e.jw = journal.NewFileWriter(jf, journal.SyncNever, 0)
	e.jw.SetMetrics(journal.NewMetrics(f.reg))
	logged := journal.NewLogged(f.eng, e.jw)

	var api server.API = logged
	var ij ingest.Journal = e.jw
	var ie ingest.Engine = f.eng
	if tr != nil {
		api = tracedAPI{Logged: logged, t: tr}
		ij = tracedJournal{next: e.jw, t: tr}
		ie = tracedApply{Engine: f.eng, t: tr}
	}
	e.ing = ingest.New(ie, ij, f.reg, ingest.Config{})
	var q server.IngestQueue = e.ing
	if tr != nil {
		q = tracedQueue{next: e.ing, t: tr}
	}
	h := server.New(api, server.WithMetrics(f.reg), server.WithIngest(q)).Handler()
	if tr != nil {
		h = tracedHandler{next: h, t: tr}
	}
	e.ts = httptest.NewServer(h) // listens on 127.0.0.1:0
	e.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		Timeout:   10 * time.Second,
	}
	go func() {
		defer close(e.hotDone)
		f.eng.HotTracker().Run(e.stopHot)
	}()
	st := f.eng.Stats()
	e.base = st.PostsDelivered + st.CheckIns
	return e, nil
}

// close stops everything the env started and waits for it.
func (e *httpEnv) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.client.CloseIdleConnections()
	e.ts.Close()
	err := e.ing.Close()
	err = errors.Join(err, e.jw.Close(), e.jf.Close())
	close(e.stopHot)
	<-e.hotDone
	return err
}

// drain waits until the engine has applied every acknowledged write.
func (e *httpEnv) drain(f *fixture) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.eng.Stats()
		if st.PostsDelivered+st.CheckIns-e.base >= uint64(e.accepted) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine applied %d of %d acknowledged writes after 10 s",
				st.PostsDelivered+st.CheckIns-e.base, e.accepted)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func newRunner(kind string, f *fixture, dir string, conns int, tr *tracer) (*runner, error) {
	r := &runner{kind: kind, f: f, tr: tr, conns: conns}
	if kind == fanoutStream {
		r.conns = 1
	} else {
		env, err := newHTTPEnv(f, dir, conns, tr)
		if err != nil {
			return nil, err
		}
		r.env = env
	}
	r.connLat = make([][]weighted, r.conns)
	return r, nil
}

func (r *runner) close() error {
	if r.env == nil {
		return nil
	}
	return r.env.close()
}

// fail records n failed operations and keeps the first reason.
func (r *runner) fail(n int, format string, args ...any) {
	r.mu.Lock()
	r.failed += int64(n)
	if r.reason == "" {
		r.reason = fmt.Sprintf(format, args...)
	}
	r.mu.Unlock()
}

// segment sends ops [first, first+count), split over the connections, and
// returns when all are answered and, for writes, applied.
func (r *runner) segment(first, count int) {
	if r.conns == 1 {
		r.send(0, first, count)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < r.conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.send(c, first, count)
			}()
		}
		wg.Wait()
	}
	if r.env != nil && r.kind != readHTTP {
		if err := r.env.drain(r.f); err != nil {
			r.fail(1, "%v", err)
		}
	}
}

func (r *runner) send(conn, first, count int) {
	var attempted, accepted int64
	for i := first; i < first+count; i++ {
		if i%r.conns != conn {
			continue
		}
		o := r.f.opAt(r.kind, i)
		root := r.tr.beginOp("client.op", o.At)
		start := time.Now()
		weight := 1
		var err error
		if r.env == nil {
			weight, err = r.direct(o)
		} else {
			err = r.overHTTP(o, i)
		}
		d := time.Since(start).Seconds()
		r.tr.end(root)
		attempted += int64(weight)
		if err != nil {
			r.fail(weight, "op %d: %v", i, err)
			continue
		}
		if o.Kind != opRecommend {
			accepted++
		}
		r.connLat[conn] = append(r.connLat[conn], weighted{Value: d / float64(weight), Weight: float64(weight)})
	}
	r.mu.Lock()
	r.attempted += attempted
	if r.env != nil {
		r.env.accepted += accepted
	}
	r.mu.Unlock()
}

// direct applies one stream op in-process. A post counts as one operation
// per feed it reaches: the unit of work in continuous mode is the fan-out
// event (window update + top-k refresh + callback), and a post's cost is
// proportional to how many of them it causes.
func (r *runner) direct(o op) (weight int, err error) {
	eng := r.f.eng
	if o.Kind == opCheckIn {
		return 1, eng.CheckIn(o.User, o.Lat, o.Lng, o.At)
	}
	before := r.f.refreshed.Load()
	id := r.tr.begin("engine.post")
	err = eng.Post(o.User, o.Text, o.At)
	r.tr.end(id)
	r.tr.count("engine.fanout_events", int64(o.Fanout))
	if err != nil {
		return o.Fanout, err
	}
	if got := r.f.refreshed.Load() - before; got != int64(o.Fanout) {
		return o.Fanout, fmt.Errorf("post by %s refreshed %d feeds, the graph says %d", o.User, got, o.Fanout)
	}
	return o.Fanout, nil
}

type recommendResponse struct {
	Recommendations []caar.Recommendation `json:"recommendations"`
}

func (r *runner) overHTTP(o op, i int) error {
	base := r.env.ts.URL
	at := o.At.UTC().Format(time.RFC3339Nano)
	var (
		req *http.Request
		err error
	)
	switch o.Kind {
	case opRecommend:
		req, err = http.NewRequest(http.MethodGet,
			base+"/v1/recommendations?user="+o.User+"&k="+strconv.Itoa(recommendK)+"&at="+at, nil)
	case opPost:
		body, _ := json.Marshal(map[string]string{"author": o.User, "text": o.Text, "at": at})
		req, err = http.NewRequest(http.MethodPost, base+"/v1/posts", bytes.NewReader(body))
	case opCheckIn:
		body, _ := json.Marshal(map[string]any{"user": o.User, "lat": o.Lat, "lng": o.Lng, "at": at})
		req, err = http.NewRequest(http.MethodPost, base+"/v1/checkins", bytes.NewReader(body))
	}
	if err != nil {
		return err
	}
	trip := r.tr.begin("transport.roundtrip")
	resp, err := r.env.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.tr.end(trip)
	r.tr.count("transport.response_bytes", int64(len(body)))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if o.Kind != opRecommend {
		return nil
	}
	var got recommendResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("recommend response: %w", err)
	}
	if err := checkRecs(got.Recommendations, recommendK); err != nil {
		return fmt.Errorf("recommend %s: %w", o.User, err)
	}
	// One response in a thousand is compared with the in-process answer;
	// only read_http can, because nothing changes state under it.
	if r.kind == readHTTP && i%1000 == 0 {
		want, err := r.f.eng.Recommend(o.User, recommendK, o.At)
		if err != nil {
			return err
		}
		if err := sameTopK(got.Recommendations, want); err != nil {
			return fmt.Errorf("recommend %s over HTTP differs from in-process: %w", o.User, err)
		}
	}
	return nil
}

// checkRecs checks one ranked answer: at most k ads, scores non-increasing,
// no ad twice.
func checkRecs(recs []caar.Recommendation, k int) error {
	if len(recs) > k {
		return fmt.Errorf("%d ads for k=%d", len(recs), k)
	}
	seen := make(map[string]bool, len(recs))
	for i, rec := range recs {
		if i > 0 && rec.Score > recs[i-1].Score {
			return fmt.Errorf("score rises at rank %d: %g after %g", i, rec.Score, recs[i-1].Score)
		}
		if seen[rec.AdID] {
			return fmt.Errorf("ad %s appears twice", rec.AdID)
		}
		seen[rec.AdID] = true
	}
	return nil
}

// scoreTol absorbs the floating-point difference between two engines that
// summed the same contributions in a different (map-iteration) order.
const scoreTol = 1e-9

// sameTopK reports whether two ranked answers agree: equal scores rank by
// rank, and the same ads except where a near-tie lets two engines order or
// cut them differently.
func sameTopK(got, want []caar.Recommendation) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ads, want %d", len(got), len(want))
	}
	wantScore := make(map[string]float64, len(want))
	for _, w := range want {
		wantScore[w.AdID] = w.Score
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > scoreTol {
			return fmt.Errorf("rank %d: score %.12g, want %.12g", i, got[i].Score, want[i].Score)
		}
		if _, ok := wantScore[got[i].AdID]; !ok && math.Abs(got[i].Score-want[len(want)-1].Score) > scoreTol {
			return fmt.Errorf("rank %d: ad %s is not in the expected answer", i, got[i].AdID)
		}
	}
	return nil
}

// phase is the outcome of a set of measured segments.
type phase struct {
	Ops       int64 // operations attempted
	Failed    int64
	Segments  []span
	SegOps    []int64    // operations per segment
	Latencies []weighted // normalised seconds
	RawLat    []weighted // raw seconds
}

// add pools one segment into the phase: its latencies join the others scaled
// by the speed that held around this segment, not by a run-wide average.
func (p *phase) add(s span, ops, failed int64, lat []weighted) {
	p.Ops += ops
	p.Failed += failed
	p.Segments = append(p.Segments, s)
	p.SegOps = append(p.SegOps, ops)
	for _, l := range lat {
		p.RawLat = append(p.RawLat, l)
		l.Value *= s.Speed
		p.Latencies = append(p.Latencies, l)
	}
}

func (p *phase) total(of func(span) float64) float64 {
	t := 0.0
	for _, s := range p.Segments {
		t += of(s)
	}
	return t
}

func (p *phase) normSeconds() float64 { return p.total(span.norm) }
func (p *phase) rawSeconds() float64  { return p.total(func(s span) float64 { return s.Raw }) }

// perSegment is the median over segments of of(segment, its op count). The
// median, not the total: a burst of interference that starts and ends inside
// one segment is invisible to the kernel runs around it, and a total lets one
// such segment move the run.
func (p *phase) perSegment(of func(s span, ops float64) float64) float64 {
	v := make([]float64, len(p.Segments))
	for i, s := range p.Segments {
		v[i] = of(s, float64(p.SegOps[i]))
	}
	return median(v)
}

// opsPerSecond is operations per reference second.
func (p *phase) opsPerSecond() float64 {
	return p.perSegment(func(s span, ops float64) float64 { return ops / s.norm() })
}

// cpuPerOp is process CPU per operation, in reference seconds.
func (p *phase) cpuPerOp() float64 {
	return p.perSegment(func(s span, ops float64) float64 { return s.cpuNorm() / ops })
}

// refCorrelation is the per-segment correlation of the bracketing kernel
// time with the segment's time per op: how much of the segment-to-segment
// variation the kernel sees.
func (p *phase) refCorrelation() float64 {
	perOp, ref := make([]float64, len(p.Segments)), make([]float64, len(p.Segments))
	for i, s := range p.Segments {
		perOp[i], ref[i] = s.Raw/float64(p.SegOps[i]), s.Ref
	}
	return pearson(ref, perOp)
}

// run measures segments until seconds of wall time have passed or maxOps ops
// were sent (0 = no op limit); at least one segment per part always runs.
// Segments go to the parts in turn; with a tracer, only part 1's are traced,
// so a traced run alternates the two on the same stack and machine drift
// hits both alike.
func (r *runner) run(n *normaliser, seconds float64, maxOps, parts int) []*phase {
	out := make([]*phase, parts)
	for i := range out {
		out[i] = &phase{}
	}
	segOps := segmentOps[r.kind]
	n.reset()
	start := time.Now()
	sent := 0
	for seg := 0; ; seg++ {
		count := segOps
		if maxOps > 0 {
			count = min(count, (maxOps+parts-1)/parts)
		}
		p := out[seg%parts]
		if r.tr != nil {
			r.tr.on.Store(seg%parts == 1)
		}
		attempted, failed := r.attempted, r.failed
		first := r.f.take(count)
		s := n.measure(func() { r.segment(first, count) })
		sent += count
		p.add(s, r.attempted-attempted, r.failed-failed, slices.Concat(r.connLat...))
		for c := range r.connLat {
			r.connLat[c] = r.connLat[c][:0]
		}
		if seg+1 >= parts && ((maxOps > 0 && sent >= maxOps) || time.Since(start).Seconds() >= seconds) {
			break
		}
	}
	return out
}

// verifyReplay sends verifyOps writes through the full stack, then replays
// the journal they left into replica — a second engine set up exactly like
// the live one — and checks that both rank the same top-10 for 100 users.
func (r *runner) verifyReplay(replica *fixture, ops int) error {
	r.segment(r.f.take(ops), ops)
	for c := range r.connLat { // these ops are checked, not measured
		r.connLat[c] = r.connLat[c][:0]
	}
	if r.failed > 0 {
		return errors.New(r.reason)
	}
	if _, err := r.env.jf.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	stats, err := journal.Replay(r.env.jf, replica.eng)
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	if _, err := r.env.jf.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if int64(stats.Applied) != r.env.accepted {
		return fmt.Errorf("journal replay applied %d entries, %d writes were acknowledged", stats.Applied, r.env.accepted)
	}
	at := r.f.t0.Add(time.Duration(r.f.cursor) * opGap)
	for u := 0; u < 100; u++ {
		user := r.f.randomUser(-1 - u)
		live, err := r.f.eng.Recommend(user, recommendK, at)
		if err != nil {
			return err
		}
		replayed, err := replica.eng.Recommend(user, recommendK, at)
		if err != nil {
			return err
		}
		if err := sameTopK(replayed, live); err != nil {
			return fmt.Errorf("after journal replay, top-%d of %s: %w", recommendK, user, err)
		}
	}
	return nil
}
