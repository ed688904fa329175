package caar

import (
	"errors"
	"fmt"
	"time"

	"caar/internal/core"
	"caar/internal/geo"
	"caar/internal/timeslot"
	"caar/obs"
	"caar/obs/trace"
)

// Config configures an Engine. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Algorithm selects the engine; default CAP.
	Algorithm Algorithm

	// AlphaText, BetaGeo and GammaBid are the non-negative mixing weights of
	// the scoring function Score = α·TextRel + β·GeoProx + γ·Bid.
	AlphaText float64
	BetaGeo   float64
	GammaBid  float64

	// DecayHalfLife ages feed content: a message's influence halves every
	// half-life. Zero disables decay.
	DecayHalfLife time.Duration

	// WindowSize is the per-user feed window capacity in messages.
	WindowSize int

	// Region is the spatial coverage, split gridSize × gridSize by the
	// spatial pre-filter.
	Region Region

	// Shards splits users across this many engine instances that share one
	// budget store, letting posts fan out in parallel. 0 or 1 disables
	// sharding. Only meaningful for CAP and IL.
	Shards int

	// ContinuousK, when positive, keeps the top-ContinuousK ads of every
	// follower a post reaches up to date and invokes OnRecommend with them
	// after each post. This is the paper's continuous "ads with every feed
	// refresh" mode. The refresh is the TopAds a Recommend makes: CAP answers
	// from the user's top-k view, which either kind of query creates, at the
	// cost of what the post changed (DESIGN.md §3.1 item 5); IL and RS re-rank.
	ContinuousK int
	// OnRecommend receives continuous-mode results. It may be called from
	// multiple goroutines when Shards > 1.
	OnRecommend func(user string, recs []Recommendation)

	// Metrics, when non-nil, is the observability registry the engine
	// registers its collectors on — pass the process-wide registry to expose
	// engine metrics alongside server and journal metrics on one scrape
	// endpoint. nil gives the engine a private registry (reachable through
	// Engine.Metrics), so instrumentation is always on.
	Metrics *obs.Registry

	// Tracer, when non-nil, enables request-scoped flight recording: each
	// recommend builds a trace (per-stage spans with candidate counts, score
	// decomposition, policy actions) and submits it to the store, which
	// head-samples ordinary requests and unconditionally tail-captures slow
	// and errored ones. nil disables tracing; the recommend hot path then
	// pays nothing (no clock reads, no allocations) beyond a nil check.
	Tracer *trace.Store

	// DisableHotKeys turns off the hot-key telemetry layer (obs/hotkey).
	// It is on by default: recording is one lock-free bounded-queue write
	// per observation into a 1-minute sliding window, and the sketches hold
	// a fixed ~0.5 MiB; bench/ reports the serving cost as
	// obs.hotkeys_overhead_share.
	DisableHotKeys bool
}

// gridSize is the resolution of IL's and CAP's spatial pre-filter: the
// region is split into gridSize × gridSize cells.
const gridSize = 64

// DefaultConfig returns a production-shaped configuration: CAP engine,
// text-dominant scoring, 2-hour half-life, 32-message windows, a city-scale
// region. CAP runs with core.DefaultCAPOptions.
func DefaultConfig() Config {
	return Config{
		Algorithm:     AlgorithmCAP,
		AlphaText:     0.6,
		BetaGeo:       0.25,
		GammaBid:      0.15,
		DecayHalfLife: 2 * time.Hour,
		WindowSize:    32,
		Region:        Region{MinLat: 0, MinLng: 0, MaxLat: 4, MaxLng: 4},
	}
}

// ErrBadConfig reports an invalid engine configuration.
var ErrBadConfig = errors.New("caar: invalid configuration")

func (c Config) validate() error {
	switch c.Algorithm {
	case AlgorithmCAP, AlgorithmIL, AlgorithmRS, "":
	default:
		return fmt.Errorf("%w: unknown algorithm %q", ErrBadConfig, c.Algorithm)
	}
	if c.Shards < 0 {
		return fmt.Errorf("%w: negative shard count %d", ErrBadConfig, c.Shards)
	}
	if c.ContinuousK < 0 {
		return fmt.Errorf("%w: negative ContinuousK", ErrBadConfig)
	}
	if c.ContinuousK > 0 && c.OnRecommend == nil {
		return fmt.Errorf("%w: ContinuousK set without OnRecommend callback", ErrBadConfig)
	}
	rect := geo.Rect(c.Region)
	if !rect.Valid() || rect.MinLat == rect.MaxLat || rect.MinLng == rect.MaxLng {
		return fmt.Errorf("%w: region %+v", ErrBadConfig, c.Region)
	}
	return nil
}

func (c Config) scoring() core.Scoring {
	return core.Scoring{
		AlphaText: c.AlphaText,
		BetaGeo:   c.BetaGeo,
		GammaBid:  c.GammaBid,
		Decay:     timeslot.NewDecay(c.DecayHalfLife),
		WindowCap: c.WindowSize,
	}
}
