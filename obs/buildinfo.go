package obs

import (
	"runtime"
	"runtime/debug"
)

// RegisterBuildInfo exposes the running binary's identity — module
// version, VCS revision (first 12 characters) and Go version, read from the
// embedded build info — as the conventional constant-1 info gauge
// caar_build_info, so dashboards can join any series against the build that
// produced it. Fields the binary does not carry read "unknown". Idempotent
// across servers sharing a registry.
func RegisterBuildInfo(reg *Registry) {
	version, rev := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				rev = s.Value[:min(len(s.Value), 12)]
			}
		}
	}
	reg.GaugeVec("caar_build_info",
		"Build identity of the running binary; constant 1.",
		"version", "revision", "go_version").
		With(version, rev, runtime.Version()).Set(1)
}
