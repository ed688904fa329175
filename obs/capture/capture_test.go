package capture

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caar/obs"
)

func fastConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Dir:                t.TempDir(),
		CPUProfileDuration: 50 * time.Millisecond,
		MinInterval:        time.Hour, // exercise the throttle deterministically
	}
}

func TestCaptureWritesBundle(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("caar_test_probe_total", "t").Add(7)
	cfg := fastConfig(t)
	cfg.Metrics = reg
	r, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.SetSources(func() ([]byte, error) { return []byte(`{"traces":[]}`), nil },
		func() ([]byte, error) { return []byte(`{"status":"ok"}`), nil }, nil)

	name, err := r.Capture("anomaly", "burn rate 20 on rec", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(name, "-anomaly-") {
		t.Errorf("bundle name %q lacks trigger slug", name)
	}

	meta, err := r.Meta(name)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "burn rate 20 on rec" || meta.Trigger != "anomaly" {
		t.Errorf("meta = %+v", meta)
	}
	if len(meta.Errors) != 0 {
		t.Errorf("capture recorded per-file errors: %v", meta.Errors)
	}

	for _, f := range []string{"cpu.pprof", "heap.pprof", "goroutine.pprof",
		"mutex.pprof", "block.pprof", "traces.json", "metrics.prom", "healthz.json", "meta.json"} {
		b, err := r.ReadFile(name, f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(b) == 0 {
			t.Errorf("%s is empty", f)
		}
	}
	if b, _ := r.ReadFile(name, "metrics.prom"); !strings.Contains(string(b), "caar_test_probe_total 7") {
		t.Error("metrics.prom missing registry contents")
	}

	// No temp residue.
	entries, _ := os.ReadDir(cfg.Dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("temp residue %q left behind", e.Name())
		}
	}

	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != name || list[0].Trigger != "anomaly" {
		t.Errorf("List = %+v", list)
	}
}

func TestCaptureRateLimitAndForce(t *testing.T) {
	reg := obs.NewRegistry()
	r, err := NewRecorder(Config{Dir: t.TempDir(), CPUProfileDuration: 20 * time.Millisecond,
		MinInterval: time.Hour, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Capture("anomaly", "first", false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Capture("anomaly", "second", false); !errors.Is(err, ErrThrottled) {
		t.Fatalf("second capture err = %v, want ErrThrottled", err)
	}
	if _, err := r.Capture("manual", "operator", true); err != nil {
		t.Fatalf("forced capture: %v", err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`caar_capture_bundles_total{trigger="anomaly"} 1`,
		`caar_capture_bundles_total{trigger="manual"} 1`,
		"caar_capture_throttled_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestRetentionPrunesOldest(t *testing.T) {
	// A controllable clock so bundle names (timestamp-prefixed) are distinct
	// and ordered.
	now := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	r, err := NewRecorder(Config{Dir: t.TempDir(), Retain: 2,
		CPUProfileDuration: time.Millisecond, MinInterval: time.Nanosecond,
		Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 4; i++ {
		now = now.Add(time.Minute)
		n, err := r.Capture("manual", "prune test", true)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, n)
	}
	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("retained %d bundles, want 2", len(list))
	}
	if list[0].Name != names[3] || list[1].Name != names[2] {
		t.Errorf("retained %q,%q; want newest two %q,%q",
			list[0].Name, list[1].Name, names[3], names[2])
	}
	if _, err := r.Meta(names[0]); err == nil {
		t.Error("oldest bundle should be pruned")
	}
}

func TestReadFileRejectsTraversal(t *testing.T) {
	r, err := NewRecorder(Config{Dir: t.TempDir(), CPUProfileDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	name, err := r.Capture("manual", "traversal test", true)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a file outside the bundle root that traversal would reach.
	outside := filepath.Join(filepath.Dir(r.Dir()), "secret.txt")
	if err := os.WriteFile(outside, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]string{
		{"../", "meta.json"},
		{name, "../../secret.txt"},
		{name, "..\\secret.txt"},
		{".tmp-x", "meta.json"},
		{name, ""},
	} {
		if _, err := r.ReadFile(bad[0], bad[1]); err == nil {
			t.Errorf("ReadFile(%q, %q) succeeded", bad[0], bad[1])
		}
	}
}

func TestSanitizeTrigger(t *testing.T) {
	for in, want := range map[string]string{
		"":                       "manual",
		"Anomaly: REC!":          "anomaly--rec",
		"slo/burn rate":          "slo-burn-rate",
		"ok-trigger_1":           "ok-trigger_1",
		"///":                    "manual",
		strings.Repeat("x", 100): strings.Repeat("x", 48),
	} {
		if got := sanitizeTrigger(in); got != want {
			t.Errorf("sanitizeTrigger(%q) = %q, want %q", in, got, want)
		}
	}
}
