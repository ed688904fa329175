// Package capture is a flight recorder for performance anomalies: when the
// SLO watchdog trips (or an operator asks), it atomically captures a bundle
// of everything needed to explain a latency regression after the fact —
// pprof CPU/heap/goroutine/mutex/block profiles, the trace-ring tail, a
// metrics snapshot, and the health report — into a timestamped directory.
//
// The point is timing: by the time a human looks at a p99 alert, the spike
// is usually over and the evidence gone. Tripping the capture from the
// burn-rate watchdog takes the CPU profile while the anomaly is still
// happening, so the profile actually contains the regression's frames.
//
// Bundles are written under Config.Dir as
//
//	<dir>/20060102T150405Z-<trigger>/
//	    meta.json       reason, build identity, uptime, capture timings
//	    cpu.pprof       CPU profile over Config.CPUProfileDuration
//	    heap.pprof      allocation profile
//	    goroutine.pprof goroutine dump (proto form)
//	    mutex.pprof     mutex contention profile
//	    block.pprof     blocking profile
//	    traces.json     trace-ring tail (when a trace source is wired)
//	    metrics.prom    full Prometheus exposition (when a registry is wired)
//	    healthz.json    health report (when a health source is wired)
//	    hotkeys.json    hot-key telemetry snapshot (when a hotkey source is wired)
//
// written first into a dot-prefixed temp directory, fsynced, and renamed
// into place, so a listing never observes a half-written bundle. Retention
// keeps the newest Config.Retain bundles; rate limiting (Config.
// MinInterval) turns a sustained incident into a handful of bundles, not
// thousands.
package capture

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caar/obs"
)

// ErrThrottled is returned when a capture is suppressed by the rate limit
// or because another capture is already in flight.
var ErrThrottled = errors.New("capture: throttled")

// Config shapes a Recorder. Dir is required; everything else has defaults.
type Config struct {
	// Dir is the bundle root; created if missing.
	Dir string
	// Retain caps retained bundles; older ones are deleted. Default 8.
	Retain int
	// MinInterval is the minimum spacing between non-forced captures.
	// Default 1m.
	MinInterval time.Duration
	// CPUProfileDuration is how long the CPU profile samples. Default 2s.
	CPUProfileDuration time.Duration
	// Metrics, when set, is snapshotted into metrics.prom and receives the
	// caar_capture_ accounting metrics.
	Metrics *obs.Registry
	// Now is the clock; tests substitute a fake for deterministic names.
	Now func() time.Time
}

// BundleFile describes one file inside a bundle.
type BundleFile struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// BundleInfo summarizes one on-disk bundle for listings.
type BundleInfo struct {
	Name       string       `json:"name"`
	Trigger    string       `json:"trigger"`
	CapturedAt time.Time    `json:"captured_at"`
	Files      []BundleFile `json:"files"`
}

// Meta is the bundle's meta.json document.
type Meta struct {
	Name          string        `json:"name"`
	Reason        string        `json:"reason"`
	Trigger       string        `json:"trigger"`
	CapturedAt    time.Time     `json:"captured_at"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Build         obs.BuildInfo `json:"build"`
	Goroutines    int           `json:"goroutines"`
	GOMAXPROCS    int           `json:"gomaxprocs"`
	CPUSeconds    float64       `json:"cpu_profile_seconds"`
	Errors        []string      `json:"errors,omitempty"`
}

// Recorder writes capture bundles. Safe for concurrent use; at most one
// capture runs at a time (a CPU profile is process-global).
type Recorder struct {
	cfg     Config
	start   time.Time
	seq     atomic.Uint64
	sources []source

	inFlight atomic.Bool
	lastUnix atomic.Int64 // completion time of the last successful capture

	bundles   *obs.CounterVec
	throttled *obs.Counter
	errorsC   *obs.Counter
}

// source renders one bundle file.
type source struct {
	file   string
	render func() ([]byte, error)
}

// NewRecorder creates the bundle root and returns a recorder.
func NewRecorder(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, errors.New("capture: Config.Dir required")
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 8
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = time.Minute
	}
	if cfg.CPUProfileDuration <= 0 {
		cfg.CPUProfileDuration = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	// The runtime's mutex and block samplers, at modest fixed rates (mutex
	// 1/16 events, blocks >= ~1ms), so mutex.pprof and block.pprof carry data.
	runtime.SetMutexProfileFraction(16)
	runtime.SetBlockProfileRate(int(time.Millisecond))
	r := &Recorder{cfg: cfg, start: cfg.Now()}
	if reg := cfg.Metrics; reg != nil {
		r.bundles = reg.CounterVec("caar_capture_bundles_total",
			"Capture bundles written, by trigger.", "trigger")
		r.throttled = reg.Counter("caar_capture_throttled_total",
			"Capture requests suppressed by the rate limit or an in-flight capture.")
		r.errorsC = reg.Counter("caar_capture_errors_total",
			"Captures that failed outright (partial bundles count as written).")
		reg.GaugeFunc("caar_capture_last_unix_seconds",
			"Completion time of the last successful capture (0 before the first).",
			func() float64 { return float64(r.lastUnix.Load()) / 1e9 })
	}
	return r, nil
}

// Dir returns the bundle root.
func (r *Recorder) Dir() string { return r.cfg.Dir }

// SetSources wires the renderers of traces.json (the trace-ring tail),
// healthz.json (the health report) and hotkeys.json (the hot-key snapshot,
// so an SLO-trip bundle names the hot user / poster / campaign behind the
// anomaly, not just its latency shape). adserver builds the recorder before
// the HTTP server that owns those surfaces, and the server points them here
// when it is. A nil renderer leaves its file out. Call before the first
// Capture; not synchronized with it.
func (r *Recorder) SetSources(traceJSON, healthJSON, hotkeysJSON func() ([]byte, error)) {
	r.sources = []source{{"traces.json", traceJSON}, {"healthz.json", healthJSON}, {"hotkeys.json", hotkeysJSON}}
}

// Capture writes one bundle and returns its name. trigger is a short label
// ("anomaly", "manual") used in the directory name and metrics; reason is
// the free-form explanation recorded in meta.json. Non-forced captures are
// rate-limited to one per MinInterval; forced captures (operator-requested)
// skip the interval but still refuse to overlap an in-flight capture —
// the runtime allows only one CPU profile at a time.
//
// Capture blocks for at least CPUProfileDuration; callers on a watchdog
// path should invoke it from a goroutine.
func (r *Recorder) Capture(trigger, reason string, force bool) (string, error) {
	if !r.inFlight.CompareAndSwap(false, true) {
		r.count(r.throttled)
		return "", fmt.Errorf("%w: capture already in flight", ErrThrottled)
	}
	defer r.inFlight.Store(false)
	if !force {
		if last := r.lastUnix.Load(); last != 0 &&
			r.cfg.Now().Sub(time.Unix(0, last)) < r.cfg.MinInterval {
			r.count(r.throttled)
			return "", fmt.Errorf("%w: last capture %s ago, min interval %s",
				ErrThrottled, r.cfg.Now().Sub(time.Unix(0, last)).Round(time.Second), r.cfg.MinInterval)
		}
	}

	now := r.cfg.Now()
	name := fmt.Sprintf("%s-%s-%d", now.UTC().Format("20060102T150405Z"),
		sanitizeTrigger(trigger), r.seq.Add(1))
	tmp := filepath.Join(r.cfg.Dir, ".tmp-"+name)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		r.count(r.errorsC)
		return "", fmt.Errorf("capture: %w", err)
	}
	meta := Meta{
		Name:          name,
		Reason:        reason,
		Trigger:       sanitizeTrigger(trigger),
		CapturedAt:    now,
		UptimeSeconds: now.Sub(r.start).Seconds(),
		Build:         obs.Build(),
		Goroutines:    runtime.NumGoroutine(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUSeconds:    r.cfg.CPUProfileDuration.Seconds(),
	}
	// Collect every artifact, accumulating per-file errors into meta rather
	// than aborting: a bundle missing one profile is still evidence.
	fail := func(what string, err error) {
		if err != nil {
			meta.Errors = append(meta.Errors, what+": "+err.Error())
		}
	}
	fail("cpu.pprof", r.writeCPUProfile(filepath.Join(tmp, "cpu.pprof")))
	fail("heap.pprof", writeLookupProfile(filepath.Join(tmp, "heap.pprof"), "heap"))
	fail("goroutine.pprof", writeLookupProfile(filepath.Join(tmp, "goroutine.pprof"), "goroutine"))
	fail("mutex.pprof", writeLookupProfile(filepath.Join(tmp, "mutex.pprof"), "mutex"))
	fail("block.pprof", writeLookupProfile(filepath.Join(tmp, "block.pprof"), "block"))
	for _, src := range r.sources {
		if src.render == nil {
			continue
		}
		b, err := src.render()
		if err == nil {
			err = writeFileSync(filepath.Join(tmp, src.file), b)
		}
		fail(src.file, err)
	}
	if r.cfg.Metrics != nil {
		var sb strings.Builder
		err := r.cfg.Metrics.WritePrometheus(&sb)
		if err == nil {
			err = writeFileSync(filepath.Join(tmp, "metrics.prom"), []byte(sb.String()))
		}
		fail("metrics.prom", err)
	}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err == nil {
		err = writeFileSync(filepath.Join(tmp, "meta.json"), mb)
	}
	if err != nil {
		r.count(r.errorsC)
		_ = os.RemoveAll(tmp)
		return "", fmt.Errorf("capture: meta: %w", err)
	}

	if err := r.publish(tmp, filepath.Join(r.cfg.Dir, name)); err != nil {
		r.count(r.errorsC)
		_ = os.RemoveAll(tmp)
		return "", err
	}
	r.lastUnix.Store(r.cfg.Now().UnixNano())
	if r.bundles != nil {
		r.bundles.With(meta.Trigger).Inc()
	}
	r.enforceRetention()
	return name, nil
}

// publish atomically renames the temp bundle into place. Every file inside
// was already fsynced by writeFileSync, so the rename only has to make the
// directory entry durable.
func (r *Recorder) publish(tmp, final string) error {
	//caarlint:allow fsyncrename bundle files are individually fsynced in writeFileSync before this rename
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("capture: publish: %w", err)
	}
	return fsyncDir(r.cfg.Dir)
}

// count increments c when metrics are wired.
func (r *Recorder) count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// cpuProfileMu serializes CPU profiling against anything else in the
// process (e.g. /debug/pprof/profile): the runtime supports one at a time.
var cpuProfileMu sync.Mutex

func (r *Recorder) writeCPUProfile(path string) error {
	cpuProfileMu.Lock()
	defer cpuProfileMu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	time.Sleep(r.cfg.CPUProfileDuration)
	pprof.StopCPUProfile()
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeLookupProfile(path, profile string) error {
	p := pprof.Lookup(profile)
	if p == nil {
		return fmt.Errorf("unknown profile %q", profile)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFileSync(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fsyncDir makes directory-entry changes (bundle renames, deletions)
// durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// enforceRetention deletes the oldest bundles beyond Retain. Bundle names
// start with a UTC timestamp, so lexicographic order is chronological.
func (r *Recorder) enforceRetention() {
	names, err := r.bundleNames()
	if err != nil || len(names) <= r.cfg.Retain {
		return
	}
	for _, name := range names[:len(names)-r.cfg.Retain] {
		_ = os.RemoveAll(filepath.Join(r.cfg.Dir, name))
	}
	_ = fsyncDir(r.cfg.Dir)
}

// bundleNames lists published bundle directory names, oldest first.
func (r *Recorder) bundleNames() ([]string, error) {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// List returns retained bundles, newest first.
func (r *Recorder) List() ([]BundleInfo, error) {
	names, err := r.bundleNames()
	if err != nil {
		return nil, err
	}
	out := make([]BundleInfo, 0, len(names))
	for i := len(names) - 1; i >= 0; i-- {
		info, err := r.stat(names[i])
		if err != nil {
			continue // racing a concurrent retention delete
		}
		out = append(out, info)
	}
	return out, nil
}

// stat builds a BundleInfo from the on-disk bundle.
func (r *Recorder) stat(name string) (BundleInfo, error) {
	dir := filepath.Join(r.cfg.Dir, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return BundleInfo{}, err
	}
	info := BundleInfo{Name: name}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			continue
		}
		info.Files = append(info.Files, BundleFile{Name: e.Name(), Bytes: fi.Size()})
	}
	var meta Meta
	if b, err := os.ReadFile(filepath.Join(dir, "meta.json")); err == nil {
		if json.Unmarshal(b, &meta) == nil {
			info.Trigger = meta.Trigger
			info.CapturedAt = meta.CapturedAt
		}
	}
	return info, nil
}

// Meta reads a bundle's meta.json.
func (r *Recorder) Meta(name string) (Meta, error) {
	clean, err := r.safeName(name)
	if err != nil {
		return Meta{}, err
	}
	b, err := os.ReadFile(filepath.Join(r.cfg.Dir, clean, "meta.json"))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// ReadFile returns one file from a bundle. Both names are validated against
// path traversal — they come off the HTTP surface.
func (r *Recorder) ReadFile(bundle, file string) ([]byte, error) {
	cb, err := r.safeName(bundle)
	if err != nil {
		return nil, err
	}
	cf, err := r.safeName(file)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(r.cfg.Dir, cb, cf))
}

// safeName rejects path separators, traversal, and hidden names.
func (r *Recorder) safeName(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") ||
		strings.Contains(name, "..") || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("capture: invalid name %q", name)
	}
	return name, nil
}

// sanitizeTrigger restricts the trigger label to a filesystem- and
// metric-label-safe slug.
func sanitizeTrigger(t string) string {
	if t == "" {
		return "manual"
	}
	var b strings.Builder
	for _, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteByte('-')
		}
	}
	s := strings.Trim(b.String(), "-")
	if s == "" {
		return "manual"
	}
	if len(s) > 48 {
		s = s[:48]
	}
	return s
}
