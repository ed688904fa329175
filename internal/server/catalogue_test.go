package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/journal"
	"caar/obs"
	"caar/obs/slo"
	"caar/obs/trace"
)

// TestMetricCatalogueMatchesREADME wires a server the way cmd/adserver does —
// engine with tracer and hot keys, journal metrics, ingest and SLO on one
// registry — scrapes /v1/metrics, and holds the README to it: every family
// registered is documented by its full name, and every full caar_ name the
// README mentions is registered. When it fails, fix the README.
func TestMetricCatalogueMatchesREADME(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := caar.DefaultConfig()
	cfg.Metrics = reg
	cfg.Tracer = trace.NewStore(trace.Config{Capacity: 16})
	eng, err := caar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.Create(filepath.Join(t.TempDir(), "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	jw := journal.NewFileWriter(jf, journal.SyncNever, 0)
	jw.SetMetrics(journal.NewMetrics(reg))
	ing := ingest.New(eng, jw, reg, ingest.Config{})
	defer ing.Close()
	objectives, err := slo.ParseObjectives(slo.DefaultObjectivesSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(journal.NewLogged(eng, jw),
		WithMetrics(reg),
		WithIngest(ing),
		WithSLO(slo.Config{FastWindow: time.Minute, SlowWindow: time.Hour, SampleEvery: time.Second, BurnThreshold: 14.4}, objectives...),
	)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d, %v", resp.StatusCode, err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(string(scrape), -1) {
		registered[m[1]] = true
	}
	if len(registered) < 50 {
		t.Fatalf("only %d families scraped: the wiring above is missing a layer", len(registered))
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`caar_[a-z0-9_]*[a-z0-9]`).FindAllString(string(readme), -1) {
		documented[name] = true
	}
	var missing, stale []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("registered but not in README.md by full name:\n  %s", strings.Join(missing, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("named in README.md but not registered:\n  %s", strings.Join(stale, "\n  "))
	}
}

// TestRouteTableMatchesREADME holds README.md's endpoint table to the route
// table, both ways: every pattern the server serves (pprof included) is a
// row, and every row is served. A row's path is a pattern once its query is
// dropped and a {placeholder} tail becomes the subtree's slash, its operator
// column is the route's, and its reader column names who reads the path: a
// path nobody reads is deleted, not documented. When it fails, fix the
// README.
func TestRouteTableMatchesREADME(t *testing.T) {
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, WithDebugPprof())
	served := map[string]bool{}
	for _, r := range srv.routes {
		served[r.pattern] = r.operator
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(/[^`?{]*)[^`]*` \\| (yes)? *\\|([^|]*)\\|").FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = m[2] == "yes"
		if strings.TrimSpace(m[3]) == "" {
			t.Errorf("README.md's row for %s names no reader", m[1])
		}
	}
	for pattern, operator := range served {
		if op, ok := documented[pattern]; !ok || op != operator {
			t.Errorf("route %s (operator %v): README.md row present %v, operator %v", pattern, operator, ok, op)
		}
	}
	for path := range documented {
		if _, ok := served[path]; !ok {
			t.Errorf("README.md documents %s, which no route serves", path)
		}
	}

	// Every request reads the table up to four times (label, recovery gate,
	// admission, deadline): a lookup must not allocate.
	paths := []string{"/v1/recommendations", "/v1/ads/a1", "/debug/pprof/profile", "/unknown"}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, p := range paths {
			_ = srv.seriesOf(p)
			_ = srv.operatorPath(p)
		}
	}); allocs != 0 {
		t.Errorf("route lookups allocate %.1f times per 4 paths, want 0", allocs)
	}
	for path, want := range map[string]string{"/v1/ads/a1": "/v1/ads", "/debug/pprof/profile": "/debug/pprof", "/unknown": "other"} {
		if got := srv.seriesOf(path).label; got != want {
			t.Errorf("endpoint label of %s = %q, want %q", path, got, want)
		}
	}
}

// fullAPI answers every recommend with one ad and a trace whose every field
// is set, so its bodies show every key the recommend handler can write.
type fullAPI struct{ API }

func (fullAPI) RecommendTraced(user string, k int, at time.Time, p caar.ServingPolicy, treq caar.TraceRequest) ([]caar.Recommendation, *trace.Trace, error) {
	tr := &trace.Trace{
		ID: treq.ID, User: user, K: k, Path: "view", Outcome: "ok", Error: "e", CaptureReason: trace.ReasonExplain,
		Spans:  []trace.Span{{Stage: "lookup"}},
		Ads:    []trace.AdScore{{AdID: "a1", Score: 0.5}},
		Policy: []trace.PolicyAction{{AdID: "a2", Action: "dropped_frequency_cap"}},
	}
	return []caar.Recommendation{{AdID: "a1", Score: 0.5, Text: 0.25, Geo: 0.125, Bid: 0.125}}, tr, nil
}

// TestREADMERecommendExamples holds README.md's two recommend bodies — the
// default and ?explain=1's — to what the handler writes: the same top-level
// keys and recommendation keys, and no key anywhere in the example that the
// handler does not write (the explain example elides some span fields).
// When it fails, fix the README.
func TestREADMERecommendExamples(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	examples := map[bool]map[string]any{}
	for _, m := range regexp.MustCompile("(?s)```json\n(.*?)```").FindAllStringSubmatch(string(readme), -1) {
		var doc map[string]any
		if err := json.Unmarshal([]byte(m[1]), &doc); err != nil {
			t.Fatalf("README.md json block does not decode: %v\n%s", err, m[1])
		}
		if _, ok := doc["recommendations"]; ok {
			_, explain := doc["explain"]
			examples[explain] = doc
		}
	}
	h := New(fullAPI{testEngine(t)}).Handler()
	for _, explain := range []bool{false, true} {
		doc := examples[explain]
		if doc == nil {
			t.Fatalf("README.md has no recommend body example with explain %v", explain)
		}
		target := "/v1/recommendations?user=alice"
		if explain {
			target += "&explain=1"
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		var got map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if d, g := keysOf(doc), keysOf(got); !reflect.DeepEqual(d, g) {
			t.Errorf("%s: README.md shows keys %q, the handler writes %q", target, d, g)
		}
		want := keysOf(got["recommendations"].([]any)[0])
		for _, rec := range doc["recommendations"].([]any) {
			if d := keysOf(rec); !reflect.DeepEqual(d, want) {
				t.Errorf("%s: README.md shows a recommendation with keys %q, the handler writes %q", target, d, want)
			}
		}
		for _, k := range strayKeys("", doc, got) {
			t.Errorf("%s: README.md shows %s, which the handler does not write", target, k)
		}
	}
}

// keysOf is the sorted keys of a decoded JSON object.
func keysOf(v any) []string {
	m, _ := v.(map[string]any)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// strayKeys lists, by path, the keys doc holds at any depth that got does
// not; each item of an array in doc is held to got's first item.
func strayKeys(path string, doc, got any) []string {
	var stray []string
	switch d := doc.(type) {
	case map[string]any:
		g, _ := got.(map[string]any)
		for k, v := range d {
			if gv, ok := g[k]; ok {
				stray = append(stray, strayKeys(path+"."+k, v, gv)...)
			} else {
				stray = append(stray, path+"."+k)
			}
		}
	case []any:
		if g, _ := got.([]any); len(g) > 0 {
			for _, v := range d {
				stray = append(stray, strayKeys(path+"[]", v, g[0])...)
			}
		}
	}
	return stray
}
