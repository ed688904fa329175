package caar

import (
	"errors"
	"time"

	"caar/obs/hotkey"
)

// ErrHotKeysDisabled is returned by hot-key queries when the engine was
// opened with Config.DisableHotKeys.
var ErrHotKeysDisabled = errors.New("caar: hot-key telemetry disabled")

// Hot returns the top-k heavy hitters of one telemetry dimension
// ("users", "posters", "campaigns") over the requested window
// (0 = the full retained window). Estimates carry one-sided error bounds:
// the true count lies in [Count−ErrorBound, Count].
func (e *Engine) Hot(dim string, k int, window time.Duration) (hotkey.DimReport, error) {
	if e.hot == nil {
		return hotkey.DimReport{}, ErrHotKeysDisabled
	}
	return e.hot.Report(hotkey.Dimension(dim), k, window)
}

// HotTracker exposes the telemetry tracker for lifecycle wiring (its Run
// loop keeps gauges and window decay fresh between queries). nil when
// hot-key telemetry is disabled.
func (e *Engine) HotTracker() *hotkey.Tracker { return e.hot }
