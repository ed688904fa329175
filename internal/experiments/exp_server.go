package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	caar "caar"
	"caar/internal/server"
	"caar/metrics"
)

func init() {
	register(Experiment{ID: "T3", Title: "End-to-end HTTP server throughput", Run: runT3})
}

// runT3 measures the full system over HTTP: a loaded engine behind the JSON
// API, hammered by concurrent clients mixing posts and recommendation
// queries. Reported: requests/sec and latency quantiles per mix.
func runT3(r *Runner) error {
	nUsers := int(200 * r.Scale * 10)
	if nUsers < 50 {
		nUsers = 50
	}
	w := genFacadeWorkload(3, nUsers, 0, 2000, 8)
	cfg := caar.DefaultConfig()
	cfg.Shards = 4
	eng, err := buildFacade(cfg, w, int(2000*r.Scale*10), 5)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(server.New(eng).Handler())
	defer ts.Close()

	nReq := int(2000 * r.Scale * 10)
	if nReq < 400 {
		nReq = 400
	}
	mixes := []struct {
		name      string
		postRatio float64
	}{
		{"read-heavy (10% posts)", 0.1},
		{"balanced (50% posts)", 0.5},
		{"write-heavy (90% posts)", 0.9},
	}
	at := time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC).Format(time.RFC3339)
	client := ts.Client()

	r.printf("%-26s %12s %10s %10s %10s\n", "mix", "req/s", "p50", "p95", "p99")
	for _, mix := range mixes {
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			lat     metrics.Samples
			reqErr  error
			workers = 8
		)
		start := time.Now()
		perWorker := nReq / workers
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				var local metrics.Samples
				for i := 0; i < perWorker; i++ {
					user := w.users[(wk*perWorker+i)%len(w.users)]
					isPost := float64(i%100)/100 < mix.postRatio
					t0 := time.Now()
					var err error
					if isPost {
						body, _ := json.Marshal(map[string]string{
							"author": user,
							"text":   fmt.Sprintf("word%04d word%04d word%04d", i%2000, (i*7)%2000, (i*13)%2000),
							"at":     at,
						})
						var resp *http.Response
						resp, err = client.Post(ts.URL+"/v1/posts", "application/json", bytes.NewReader(body))
						if resp != nil {
							resp.Body.Close()
						}
					} else {
						var resp *http.Response
						resp, err = client.Get(ts.URL + "/v1/recommendations?user=" + user + "&k=5&at=" + at)
						if resp != nil {
							resp.Body.Close()
						}
					}
					local.Observe(time.Since(t0))
					if err != nil {
						mu.Lock()
						if reqErr == nil {
							reqErr = err
						}
						mu.Unlock()
						return
					}
				}
				mu.Lock()
				lat.Merge(&local)
				mu.Unlock()
			}(wk)
		}
		wg.Wait()
		if reqErr != nil {
			return reqErr
		}
		elapsed := time.Since(start)
		tp := metrics.Throughput{Events: lat.Count(), Elapsed: elapsed}
		r.printf("%-26s %12.1f %10v %10v %10v\n", mix.name, tp.PerSecond(),
			lat.Quantile(0.5).Round(time.Microsecond),
			lat.Quantile(0.95).Round(time.Microsecond),
			lat.Quantile(0.99).Round(time.Microsecond))
	}
	return nil
}
