package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/journal"
	"caar/obs"
	"caar/obs/capture"
	"caar/obs/slo"
	"caar/obs/trace"
)

// TestMetricCatalogueMatchesREADME wires a server the way cmd/adserver does —
// engine with tracer and hot keys, journal metrics, ingest, SLO and capture on
// one registry — scrapes /v1/metrics, and holds the README to it: every family
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
	rec, err := capture.NewRecorder(capture.Config{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	objectives, err := slo.ParseObjectives(slo.DefaultObjectivesSpec)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(journal.NewLogged(eng, jw),
		WithMetrics(reg),
		WithIngest(ing),
		WithCapture(rec),
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
// dropped and a {placeholder} tail becomes the subtree's slash, and its
// operator column is the route's. When it fails, fix the README.
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
	for _, m := range regexp.MustCompile("(?m)^\\| `(/[^`?{]*)[^`]*` \\| (yes)? *\\|").FindAllStringSubmatch(string(readme), -1) {
		documented[m[1]] = m[2] == "yes"
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
			_ = srv.endpointLabel(p)
			_ = srv.operatorPath(p)
		}
	}); allocs != 0 {
		t.Errorf("route lookups allocate %.1f times per 4 paths, want 0", allocs)
	}
	for path, want := range map[string]string{"/v1/ads/a1": "/v1/ads", "/debug/pprof/profile": "/debug/pprof", "/unknown": "other"} {
		if got := srv.endpointLabel(path); got != want {
			t.Errorf("endpoint label of %s = %q, want %q", path, got, want)
		}
	}
}
