package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

const metricPrefix = "caar_"

// registration describes one Registry method's argument layout.
type registration struct {
	kind      string // "counter", "gauge", "histogram"
	labelsMin int    // index of the first label argument; -1 when unlabeled
}

var registrations = map[string]registration{
	"Counter":          {"counter", -1},
	"CounterVec":       {"counter", 2},
	"CounterFunc":      {"counter", -1},
	"CounterFloatFunc": {"counter", -1},
	"Gauge":            {"gauge", -1},
	"GaugeVec":         {"gauge", 2},
	"GaugeFunc":        {"gauge", -1},
	"Histogram":        {"histogram", -1},
	"HistogramVec":     {"histogram", 3},
}

var (
	metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
)

// reservedSuffixes collide with series the histogram exposition synthesizes.
var reservedSuffixes = []string{"_bucket", "_sum", "_count"}

// unitSuffixes are the base units a histogram must declare.
var unitSuffixes = []string{"_seconds", "_bytes", "_ratio"}

// metricname enforces the observability registry's naming contract at
// every obs.Registry registration call.
//
// The Prometheus exposition is the system's operational API: dashboards,
// alerts, and run-books key on metric names, so a misnamed metric is an
// interface break that no Go test notices. The rules:
//
//   - every metric name is a compile-time constant with the caar_ prefix,
//     spelled snake_case;
//   - counters (Counter, CounterVec, CounterFunc, CounterFloatFunc) end in
//     _total; gauges and histograms never do;
//   - histograms carry an explicit base unit (_seconds, _bytes or _ratio);
//   - no name ends in the exposition-reserved _bucket/_sum/_count suffixes;
//   - label names are compile-time constant snake_case and never the
//     reserved "le"/"quantile";
//   - every metric carries non-empty help text.
func metricname(pass *pass) {
	pass.inspect(func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := callee(pass.TypesInfo, call)
		if fn == nil {
			return
		}
		reg, ok := registrations[fn.Name()]
		if !ok || !isRegistryMethod(fn) {
			return
		}
		if len(call.Args) < 2 {
			return // does not type-check anyway
		}

		nameArg := call.Args[0]
		name, isConst := constString(pass.TypesInfo, nameArg)
		if !isConst {
			pass.Reportf(nameArg.Pos(), "metric name must be a compile-time constant so dashboards can grep for it")
		} else {
			checkName(pass, nameArg.Pos(), name, reg, fn.Name())
		}

		if help, ok := constString(pass.TypesInfo, call.Args[1]); ok && strings.TrimSpace(help) == "" {
			pass.Reportf(call.Args[1].Pos(), "metric %q registered without help text", name)
		}

		if reg.labelsMin >= 0 {
			for _, arg := range call.Args[reg.labelsMin:] {
				label, ok := constString(pass.TypesInfo, arg)
				if !ok {
					pass.Reportf(arg.Pos(), "label names must be compile-time constants (constant label sets keep cardinality auditable)")
					continue
				}
				if !labelNameRE.MatchString(label) {
					pass.Reportf(arg.Pos(), "label name %q is not snake_case", label)
				}
				if label == "le" || label == "quantile" {
					pass.Reportf(arg.Pos(), "label name %q is reserved by the exposition format", label)
				}
			}
		}
	})
}

func checkName(pass *pass, arg token.Pos, name string, reg registration, method string) {
	if !strings.HasPrefix(name, metricPrefix) {
		pass.Reportf(arg, "metric %q lacks the %q prefix", name, metricPrefix)
		return
	}
	if !metricNameRE.MatchString(name) {
		pass.Reportf(arg, "metric %q is not snake_case", name)
		return
	}
	for _, suf := range reservedSuffixes {
		if strings.HasSuffix(name, suf) {
			pass.Reportf(arg, "metric %q ends in exposition-reserved suffix %q", name, suf)
			return
		}
	}
	switch reg.kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(arg, "counter %q must end in _total (%s registers a counter)", name, method)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(arg, "gauge %q must not end in _total; _total promises a monotone counter — register it as a counter or rename it", name)
		}
	case "histogram":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(arg, "histogram %q must not end in _total", name)
			return
		}
		hasUnit := false
		for _, suf := range unitSuffixes {
			if strings.HasSuffix(name, suf) {
				hasUnit = true
				break
			}
		}
		if !hasUnit {
			pass.Reportf(arg, "histogram %q must declare a base unit suffix (%s)", name, strings.Join(unitSuffixes, ", "))
		}
	}
}

// isRegistryMethod reports whether fn is a method on obs.Registry (or one of
// its Vec types, whose With/label args are not checked here). Matching is by
// receiver type name + package name so the analyzer works against the
// fixtures' local obs package as well as caar/obs.
func isRegistryMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	tn := named(recv.Type())
	return tn != nil && tn.Name() == "Registry" && tn.Pkg() != nil && tn.Pkg().Name() == "obs"
}

// constString evaluates e as a compile-time string constant.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
