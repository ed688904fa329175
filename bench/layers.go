package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/internal/core"
	"caar/internal/feed"
	"caar/internal/index"
	"caar/internal/textproc"
	"caar/internal/topk"
	"caar/journal"
	tracestore "caar/obs/trace"
)

// layerMetrics collects the per-layer metrics of a traced run.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// timeCalls runs fn count times inside one normalised span and returns each
// call's duration in reference seconds, sorted.
func timeCalls(n *normaliser, count int, fn func(i int)) []float64 {
	d := make([]float64, count)
	s := n.measure(func() {
		for i := range d {
			t := time.Now()
			fn(i)
			d[i] = time.Since(t).Seconds()
		}
	})
	for i := range d {
		d[i] *= s.Speed
	}
	slices.Sort(d)
	return d
}

// mallocsDuring returns the heap allocations made while fn ran.
func mallocsDuring(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// runTraced reports the per-layer metrics: it sets up once, runs the
// workload serially without and then with the span decorators, and probes
// each layer directly. seconds is split evenly over the two phases and the
// probes' share is fixed by their op counts.
func runTraced(kind string, fc fixtureConfig, seed int64, seconds float64, maxOps int, dir, spansOut string) (*result, error) {
	started := time.Now()
	n := newNormaliser()
	m := layerMetrics{}

	// Two engines: continuous mode on (what fanout_stream measures) and off
	// (what cmd/adserver runs); the workload's own is set up first, with
	// heap probes, and reported as the set-up.
	live, rep, err := newFixture(fc, seed, continuousKOf(kind), n, true)
	if err != nil {
		return nil, err
	}
	other, _, err := newFixture(fc, seed, continuousK-continuousKOf(kind), n, false)
	if err != nil {
		return nil, err
	}
	plain, continuous := live, other
	if kind == fanoutStream {
		plain, continuous = other, live
	}
	m.set("workload.generate_s", rep.Generate, "s")
	m.set("engine.load_s", rep.Load, "s")
	m.set("engine.warm_s", rep.Warm, "s")
	m.set("bench.raw_setup_s", rep.Raw, "s")
	m.set("engine.bytes_per_ad", rep.AdBytes/float64(fc.Ads), "B")
	m.set("engine.bytes_per_user", rep.WarmBytes/float64(fc.Users), "B")

	// One connection, one stack with the decorators in place, segments
	// alternately untraced and traced.
	tr := newTracer()
	r, err := newRunner(kind, live, dir, 1, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fmt.Printf("two set-ups: %.2f s\n", time.Since(started).Seconds())
	phases := r.run(n, seconds/2, maxOps, 2)
	runtime.ReadMemStats(&after)
	if err := errors.Join(r.close(), checkDelivered(r, live)); err != nil {
		return nil, err
	}
	untraced, traced := phases[0], phases[1]
	path := filepath.Join(dir, "spans.jsonl")
	if spansOut != "" {
		path = spansOut
	}
	size, err := tr.writeFile(path)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%d spans (%d bytes) written to %s\n", len(tr.spans), size, path)
	spanMetrics(m, tr, traced)
	m.set("bench.tracing_overhead_share", 1-traced.opsPerSecond()/untraced.opsPerSecond(), "share")
	m.set("bench.raw_ops_per_s", float64(untraced.Ops)/untraced.rawSeconds(), "1/s")
	m.set("bench.serial_ops_per_s", untraced.opsPerSecond(), "1/s")
	m.set("bench.serial_op_p50_us", weightedQuantile(untraced.Latencies, 0.5)*1e6, "us")
	m.set("bench.ref_correlation", untraced.refCorrelation(), "r")
	m.set("bench.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(untraced.Ops+traced.Ops)/1024, "kB")
	if err := generatorShare(m, kind, live, untraced); err != nil {
		return nil, err
	}

	probes := []struct {
		layer string
		run   func(layerMetrics, *normaliser, *fixture, *fixture, string) error
	}{
		{"textproc", probeTextproc}, {"core", probeCore}, {"engine", probeEngine}, {"server", probeServer},
		{"obs", probeObs}, {"snapshot", probeSnapshot}, {"journal", probeJournal}, {"ingest", probeIngest},
	}
	for _, probe := range probes {
		t := time.Now()
		if err := probe.run(m, n, plain, continuous, dir); err != nil {
			return nil, fmt.Errorf("%s probe: %w", probe.layer, err)
		}
		fmt.Printf("%s probe: %.2f s\n", probe.layer, time.Since(t).Seconds())
	}

	speeds := make([]float64, len(n.spans))
	for i, s := range n.spans {
		speeds[i] = s.Speed
	}
	m.set("bench.speed_index_median", median(speeds), "ratio")
	m.set("bench.speed_index_min", slices.Min(speeds), "ratio")
	m.set("bench.ref_cost_share", n.refTime/time.Since(started).Seconds(), "share")

	failed := untraced.Failed + traced.Failed
	if r.reason != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", kind, r.reason)
	}
	return &result{Correct: failed == 0, Attempted: untraced.Ops + traced.Ops, Failed: failed, Metrics: m}, nil
}

// spanLayers are the layers a synchronous span can belong to, outermost
// first: the load generator, the loopback HTTP round trip, the server's
// handler chain, the ingest accept path, the journal group commit, and the
// engine.
var spanLayers = []string{"client", "transport", "server", "ingest", "journal", "engine"}

// spanMetrics turns the traced phase's spans into per-layer self-time
// shares. What no span covers — the loop between ops and the wait for the
// applier at segment ends — is the unattributed share.
func spanMetrics(m layerMetrics, tr *tracer, p *phase) {
	self := selfTimes(tr.spans)
	root := rootTime(tr.spans)
	ops := float64(tr.op + 1)
	for _, layer := range spanLayers {
		m.set("span."+layer+"_share", self[layer]/root, "share")
		m.set("span."+layer+"_us_per_op", self[layer]/ops*1e6, "us")
	}
	// Apply work after the acknowledgement overlaps the next requests, so
	// it is reported against wall time and not summed with the shares above.
	m.set("span.async_apply_share", self["async:engine"]/p.rawSeconds(), "share")
	m.set("bench.unattributed_share", 1-root/p.rawSeconds(), "share")
	m.set("span.count", float64(len(tr.spans)), "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// generatorShare measures what the load generator and the HTTP machinery
// cost on their own: the same requests against a stub handler that answers
// from a canned body. 0 for fanout_stream, which has neither.
func generatorShare(m layerMetrics, kind string, f *fixture, full *phase) error {
	if kind == fanoutStream {
		m.set("bench.generator_cpu_share", 0, "share")
		return nil
	}
	recs, err := f.eng.Recommend(f.handles[0], recommendK, f.t0)
	if err != nil {
		return err
	}
	canned, _ := json.Marshal(map[string]any{"user": f.handles[0], "recommendations": recs})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.Method == http.MethodGet {
			w.Header().Set("Content-Type", "application/json")
			w.Write(canned)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	r := &runner{kind: kind, f: f, conns: 1, env: &httpEnv{ts: ts, client: client}, connLat: make([][]weighted, 1)}
	const ops = 600
	cpu := processCPU()
	r.send(0, 1, ops) // from op 1: op 0 is the one read_http checks against the engine
	cpu = processCPU() - cpu
	if r.failed > 0 {
		return fmt.Errorf("generator against stub handler: %s", r.reason)
	}
	fullCPU := 0.0
	for _, s := range full.Segments {
		fullCPU += s.CPU
	}
	m.set("bench.generator_cpu_share", (cpu/ops)/(fullCPU/float64(full.Ops)), "share")
	return nil
}

func probeTextproc(m layerMetrics, n *normaliser, plain, _ *fixture, _ string) error {
	const posts = 2000
	p := textproc.NewPipeline()
	var s span
	allocs := mallocsDuring(func() {
		s = n.measure(func() {
			for i := 0; i < posts; i++ {
				p.Vector(plain.postEvent(i).Text)
			}
		})
	})
	m.set("textproc.vector_us_per_post", s.norm()/posts*1e6, "us")
	m.set("textproc.allocs_per_post", allocs/posts, "count")
	return nil
}

// probeCore drives a core.CAP of its own, built from the workload's vectors
// as internal/experiments does, plus the index and top-k structures under it.
func probeCore(m layerMetrics, n *normaliser, plain, _ *fixture, _ string) error {
	w := plain.w
	inv := index.NewInverted()
	for _, a := range w.Ads {
		inv.Add(a.ID, a.Vec)
	}
	const msgs = 1000
	s := n.measure(func() {
		for i := 0; i < msgs; i++ {
			inv.DeltaList(plain.postEvent(i).Msg.Vec)
		}
	})
	m.set("index.deltalist_us_per_msg", s.norm()/msgs*1e6, "us")

	const queries, offers = 200, 1500 // a candidate buffer holds ~1 400 ads
	scores := make([]float64, offers)
	for i := range scores {
		scores[i] = float64(splitmix64(uint64(i))%1e6) * 1e-6
	}
	var sink int
	allocs := mallocsDuring(func() {
		s = n.measure(func() {
			for q := 0; q < queries; q++ {
				c := topk.NewCollector(recommendK)
				for i, sc := range scores {
					c.Offer(int64(i), sc)
				}
				sink += len(c.Items())
			}
		})
	})
	m.set("topk.offer_ns", s.norm()/(queries*offers)*1e9, "ns")
	m.set("topk.allocs_per_query", allocs/queries, "count")

	scoring := core.DefaultScoring()
	eng, err := core.NewCAP(scoring, nil, w.Cfg.Region, 64, 64, core.DefaultCAPOptions())
	if err != nil {
		return err
	}
	for _, u := range w.Users {
		eng.AddUser(u.ID)
		if err := eng.CheckIn(u.ID, u.Home, w.Cfg.Start); err != nil {
			return err
		}
	}
	for _, a := range w.CloneAds() {
		if err := eng.AddAd(a); err != nil {
			return err
		}
	}
	const posts = 1500
	followers, deliveries := make([]feed.UserID, 0, 512), 0
	s = n.measure(func() {
		for i := 0; i < posts && err == nil; i++ {
			ev := plain.postEvent(i)
			followers = append(append(followers[:0], ev.User), w.Graph.Followers(ev.User)...)
			msg := ev.Msg
			msg.ID = feed.MessageID(i + 1) // wrapped events would repeat IDs
			msg.Time = plain.t0.Add(time.Duration(i) * opGap)
			err = eng.Deliver(msg, followers)
			deliveries += len(followers)
		}
	})
	if err != nil {
		return err
	}
	m.set("core.deliver_us_per_follower", s.norm()/float64(deliveries)*1e6, "us")
	m.set("core.buffer_entries_per_user", float64(eng.TotalBufferEntries())/float64(len(w.Users)), "count")
	at := plain.t0.Add(posts * opGap)
	var lat []float64
	allocs = mallocsDuring(func() {
		lat = timeCalls(n, 1000, func(i int) {
			if _, e := eng.TopAds(feed.UserID(splitmix64(uint64(i))%uint64(len(w.Users))), recommendK, at); e != nil {
				err = e
			}
		})
	})
	m.set("core.topads_us_p50", quantile(lat, 0.5)*1e6, "us")
	m.set("core.topads_allocs", allocs/1000, "count")
	return err
}

// probeEngine calls the facade in-process: reads on the plain engine, posts
// on both, so the share of a post's time spent refreshing top-k shows.
func probeEngine(m layerMetrics, n *normaliser, plain, continuous *fixture, _ string) error {
	var err error
	const reads = 2000
	var lat []float64
	allocs := mallocsDuring(func() {
		lat = timeCalls(n, reads, func(i int) {
			if _, e := plain.eng.Recommend(plain.randomUser(i), recommendK, plain.t0); e != nil {
				err = e
			}
		})
	})
	if err != nil {
		return err
	}
	m.set("engine.recommend_us_p50", quantile(lat, 0.5)*1e6, "us")
	m.set("engine.recommend_us_p99", quantile(lat, 0.99)*1e6, "us")
	m.set("engine.recommend_allocs", allocs/reads, "count")

	perDelivery := func(f *fixture, posts, size int) (float64, float64) {
		deliveries, first := 0, f.take(posts)
		s := n.measure(func() {
			for i := 0; i < posts && err == nil; i += size {
				reqs := make([]caar.PostRequest, size)
				for j := range reqs {
					o := f.post(first+i+j, first+i+j)
					reqs[j] = caar.PostRequest{Author: o.User, Text: o.Text, At: o.At}
					deliveries += o.Fanout
				}
				err = errors.Join(f.eng.PostBatch(reqs)...)
			}
		})
		return s.norm() / float64(deliveries) * 1e6, float64(deliveries) / float64(posts)
	}
	const posts, batch = 320, 16
	single, perPost := perDelivery(plain, posts, 1)
	m.set("engine.post_us_per_delivery", single, "us")
	m.set("engine.deliveries_per_post", perPost, "count")
	batched, _ := perDelivery(plain, posts, batch)
	m.set("engine.postbatch16_us_per_delivery", batched, "us")
	refreshing, _ := perDelivery(continuous, 100, 1) // 40× the cost per delivery, so fewer posts
	m.set("engine.refresh_share", 1-single/refreshing, "share")
	return err
}

// probeServer calls the handler chain on an in-memory writer (no socket),
// then the same requests over the loopback, so the cost of the server's own
// code and of the transport under it come apart.
func probeServer(m layerMetrics, n *normaliser, plain, _ *fixture, dir string) error {
	// The decorators time handler and engine inside the same call, so the
	// server's own share (the edge) is a difference of paired readings.
	tr := newTracer()
	env, err := newHTTPEnv(plain, dir, 1, tr)
	if err != nil {
		return err
	}
	defer env.close()
	h := env.ts.Config.Handler
	const reads, writes = 1000, 300
	at := plain.t0.UTC().Format(time.RFC3339Nano)
	bytesOut := 0
	serve := func(req *http.Request) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		bytesOut += w.Body.Len()
		if w.Code/100 != 2 {
			err = fmt.Errorf("handler probe: %s %s: status %d", req.Method, req.URL.Path, w.Code)
		}
	}
	tr.on.Store(true)
	var s span
	allocs := mallocsDuring(func() {
		s = n.measure(func() {
			for i := 0; i < reads; i++ {
				serve(httptest.NewRequest(http.MethodGet,
					"/v1/recommendations?user="+plain.randomUser(i)+"&k=10&at="+at, nil))
			}
		})
	})
	tr.on.Store(false)
	var handler, edge []float64
	for i, sp := range tr.spans {
		if sp.Name != "engine.recommend" {
			continue
		}
		parent := tr.spans[sp.Parent]
		total := float64(parent.End-parent.Start) * 1e-9 * s.Speed
		handler = append(handler, total)
		edge = append(edge, total-float64(tr.spans[i].End-tr.spans[i].Start)*1e-9*s.Speed)
	}
	handlerP50 := median(handler)
	m.set("server.handler_recommend_us_p50", handlerP50*1e6, "us")
	m.set("server.edge_recommend_us_p50", median(edge)*1e6, "us")
	m.set("server.allocs_per_recommend", allocs/reads, "count")
	m.set("server.response_bytes_per_recommend", float64(bytesOut)/reads, "B")

	lat := timeCalls(n, reads, func(i int) {
		resp, e := env.client.Get(env.ts.URL + "/v1/recommendations?user=" + plain.randomUser(i) + "&k=10&at=" + at)
		if e != nil {
			err = e
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
	m.set("transport.loopback_us_p50", (quantile(lat, 0.5)-handlerP50)*1e6, "us")

	// The scrape walks every series of the shared registry.
	series := 0
	lat = timeCalls(n, 20, func(int) {
		w := httptest.NewRecorder()
		plain.reg.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		series = 0
		for _, line := range bytes.Split(w.Body.Bytes(), []byte("\n")) {
			if len(line) > 0 && line[0] != '#' {
				series++
			}
		}
	})
	m.set("obs.scrape_us", quantile(lat, 0.5)*1e6, "us")
	m.set("obs.series", float64(series), "count")

	// Posts last: their apply runs on after the handler returns and would
	// disturb whatever was timed next.
	first := plain.take(writes)
	lat = timeCalls(n, writes, func(i int) {
		o := plain.post(first+i, first+i)
		body, _ := json.Marshal(map[string]string{"author": o.User, "text": o.Text, "at": o.At.UTC().Format(time.RFC3339Nano)})
		serve(httptest.NewRequest(http.MethodPost, "/v1/posts", bytes.NewReader(body)))
	})
	m.set("server.handler_post_us_p50", quantile(lat, 0.5)*1e6, "us")
	return errors.Join(err, env.close())
}

// probeObs prices the engine's own instrumentation on the read path: the
// same recommend calls against three quarter-scale engines that differ only
// in Config.DisableHotKeys and Config.Tracer, interleaved so drift cancels.
func probeObs(m layerMetrics, n *normaliser, plain, _ *fixture, _ string) error {
	fc := fixtureConfig{Users: plain.cfg.Users / 4, Ads: plain.cfg.Ads / 4, Messages: plain.cfg.Messages / 4, WarmOps: plain.cfg.WarmOps / 4}
	variants := []func(*caar.Config){
		func(*caar.Config) {},
		func(c *caar.Config) { c.DisableHotKeys = true },
		func(c *caar.Config) {
			c.Tracer = tracestore.NewStore(tracestore.Config{Capacity: tracestore.DefaultCapacity, SampleRate: 0.01})
		},
	}
	engines := make([]*fixture, len(variants))
	for v, tweak := range variants {
		f, _, err := newFixtureWith(fc, plain.seed, 0, n, false, tweak)
		if err != nil {
			return err
		}
		engines[v] = f
	}
	// Raw seconds: short turns in strict rotation see the same machine.
	const rounds, calls = 40, 100
	total := make([]float64, len(variants))
	for r := 0; r < rounds; r++ {
		for v, f := range engines {
			start := time.Now()
			for i := 0; i < calls; i++ {
				if _, err := f.eng.Recommend(f.randomUser(r*calls+i), recommendK, f.t0); err != nil {
					return err
				}
			}
			total[v] += time.Since(start).Seconds()
		}
	}
	m.set("obs.hotkeys_overhead_share", 1-total[1]/total[0], "share")
	m.set("obs.trace_overhead_share", total[2]/total[0]-1, "share")
	return nil
}

func probeSnapshot(m layerMetrics, n *normaliser, plain, _ *fixture, dir string) error {
	path := filepath.Join(dir, "snapshot.json")
	var err error
	s := n.measure(func() { err = plain.eng.SaveSnapshot(path) })
	if err != nil {
		return err
	}
	m.set("snapshot.save_s", s.norm(), "s")
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("snapshot.mb", float64(st.Size())/(1<<20), "MB")
	s = n.measure(func() { _, _, err = caar.LoadSnapshot(caar.DefaultConfig(), path) })
	m.set("snapshot.load_s", s.norm(), "s")
	return err
}

// streamEntries takes the next count posts of the stream as journal entries.
func streamEntries(f *fixture, count int) []journal.Entry {
	first := f.take(count)
	entries := make([]journal.Entry, count)
	for i := range entries {
		o := f.post(first+i, first+i)
		entries[i] = journal.Entry{Op: journal.OpPost, User: o.User, Text: o.Text, At: o.At}
	}
	return entries
}

func probeJournal(m layerMetrics, n *normaliser, plain, _ *fixture, dir string) error {
	jf, err := os.CreateTemp(dir, "probe-journal-*.log")
	if err != nil {
		return err
	}
	defer jf.Close()
	jw := journal.NewFileWriter(jf, journal.SyncNever, 0)
	const total = 512
	entries := streamEntries(plain, total)
	for _, size := range []int{1, 16, 256} {
		s := n.measure(func() {
			for lo := 0; lo < total && err == nil; lo += size {
				err = jw.AppendBatch(entries[lo : lo+size])
			}
		})
		if err != nil {
			return err
		}
		m.set(fmt.Sprintf("journal.appendbatch_us_per_entry_b%d", size), s.norm()/total*1e6, "us")
	}
	st, err := jf.Stat()
	if err != nil {
		return err
	}
	m.set("journal.bytes_per_post", float64(st.Size())/(3*total), "B")

	// What SyncAlways would add to every group commit on this disk; raw
	// microseconds, because the kernel says nothing about the device.
	syncs := make([]float64, 40)
	for i := range syncs {
		if err := jw.AppendBatch(entries[i : i+1]); err != nil {
			return err
		}
		t := time.Now()
		if err := jf.Sync(); err != nil {
			return err
		}
		syncs[i] = time.Since(t).Seconds()
	}
	m.set("journal.fsync_us_p50", median(syncs)*1e6, "us")

	// Replay a log of one pass into the plain engine.
	if err := jf.Truncate(0); err != nil {
		return err
	}
	if _, err := jf.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := jw.AppendBatch(entries); err != nil {
		return err
	}
	if _, err := jf.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var stats journal.ReplayStats
	s := n.measure(func() { stats, err = journal.Replay(jf, plain.eng) })
	if err != nil {
		return err
	}
	if stats.Applied != total {
		return fmt.Errorf("journal probe: replay applied %d of %d entries", stats.Applied, total)
	}
	m.set("journal.replay_posts_per_s", total/s.norm(), "1/s")
	return nil
}

// countingJournal counts group commits and their entries.
type countingJournal struct {
	ingest.Journal
	mu               sync.Mutex
	batches, entries int
}

func (j *countingJournal) AppendBatch(e []journal.Entry) error {
	j.mu.Lock()
	j.batches++
	j.entries += len(e)
	j.mu.Unlock()
	return j.Journal.AppendBatch(e)
}

// probeIngest submits posts in-process from two goroutines, then one at a
// time to see how long an acknowledged post takes to become visible.
func probeIngest(m layerMetrics, n *normaliser, plain, _ *fixture, dir string) error {
	jf, err := os.CreateTemp(dir, "probe-ingest-*.log")
	if err != nil {
		return err
	}
	defer jf.Close()
	cj := &countingJournal{Journal: journal.NewFileWriter(jf, journal.SyncNever, 0)}
	p := ingest.New(plain.eng, cj, nil, ingest.Config{})
	defer p.Close()

	const perSubmitter, submitters, serial = 300, 2, 100
	first := plain.take(perSubmitter*submitters + serial)
	base := plain.eng.Stats().PostsDelivered
	lats := make([][]float64, submitters)
	shed := make([]int, submitters)
	var firstErr error
	var mu sync.Mutex
	s := n.measure(func() {
		var wg sync.WaitGroup
		for c := 0; c < submitters; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					o := plain.post(first+i*submitters+c, first+i*submitters+c)
					t := time.Now()
					err := p.SubmitPost(o.User, o.Text, o.At)
					lats[c] = append(lats[c], time.Since(t).Seconds())
					switch {
					case errors.Is(err, ingest.ErrQueueFull):
						shed[c]++
					case err != nil:
						mu.Lock()
						firstErr = err
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
	})
	if firstErr != nil {
		return firstErr
	}
	all := append(lats[0], lats[1]...)
	for i := range all {
		all[i] *= s.Speed
	}
	m.set("ingest.submit_us_p50", median(all)*1e6, "us")
	m.set("ingest.mean_batch", ratio(float64(cj.entries), float64(cj.batches)), "count")
	// One fsync per group commit under -fsync always.
	m.set("journal.commits_per_post", ratio(float64(cj.batches), float64(cj.entries)), "ratio")
	m.set("ingest.shed_share", float64(shed[0]+shed[1])/(perSubmitter*submitters), "share")

	// Let the applier catch up, then time submit → applied one post at a time.
	applied := func() uint64 { return plain.eng.Stats().PostsDelivered }
	target := base + uint64(perSubmitter*submitters-shed[0]-shed[1])
	for deadline := time.Now().Add(10 * time.Second); applied() < target; {
		if time.Now().After(deadline) {
			return errors.New("ingest probe: applier did not catch up within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	lag := timeCalls(n, serial, func(i int) {
		o := plain.post(first+perSubmitter*submitters+i, first+perSubmitter*submitters+i)
		if e := p.SubmitPost(o.User, o.Text, o.At); e != nil {
			err = e
			return
		}
		target++
		for applied() < target {
			runtime.Gosched()
		}
	})
	m.set("ingest.visible_lag_us_p50", quantile(lag, 0.5)*1e6, "us")
	return errors.Join(err, p.Close())
}
