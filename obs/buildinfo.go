package obs

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Build identity. Capture bundles and bench trajectories are only useful if
// a result can be attributed to the build that produced it, so the module
// version and VCS state read from the binary's embedded build info are
// exposed in two places off this one struct: every capture bundle's
// meta.json and the caar_build_info metric.

// BuildInfo identifies the running binary.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`  // main module path
	Version   string `json:"version,omitempty"` // module version ("(devel)" for source builds)
	VCSRev    string `json:"vcs_revision,omitempty"`
	VCSTime   string `json:"vcs_time,omitempty"`
	VCSDirty  bool   `json:"vcs_dirty,omitempty"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// Build returns the binary's build identity, read once from
// runtime/debug.ReadBuildInfo. Binaries built without module support (rare:
// some test harnesses) get the Go version and platform only.
func Build() BuildInfo {
	buildOnce.Do(func() {
		buildInfo = BuildInfo{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
		}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfo.Module = bi.Main.Path
		buildInfo.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfo.VCSRev = s.Value
			case "vcs.time":
				buildInfo.VCSTime = s.Value
			case "vcs.modified":
				buildInfo.VCSDirty = s.Value == "true"
			}
		}
	})
	return buildInfo
}

// ShortRev returns the first 12 characters of the VCS revision, or "" when
// the binary carries no VCS stamp.
func (b BuildInfo) ShortRev() string {
	if len(b.VCSRev) > 12 {
		return b.VCSRev[:12]
	}
	return b.VCSRev
}

// RegisterBuildInfo exposes the build identity as the conventional
// constant-1 info gauge, so dashboards can join any series against the
// build that produced it. Idempotent across servers sharing a registry.
func RegisterBuildInfo(reg *Registry) {
	b := Build()
	version := b.Version
	if version == "" {
		version = "unknown"
	}
	rev := b.ShortRev()
	if rev == "" {
		rev = "unknown"
	}
	reg.GaugeVec("caar_build_info",
		"Build identity of the running binary; constant 1.",
		"version", "revision", "go_version").
		With(version, rev, b.GoVersion).Set(1)
}
