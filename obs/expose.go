package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition format, version 0.0.4:
//
//	# HELP name help text
//	# TYPE name counter|gauge|histogram
//	name{label="value"} 12 ...
//
// Histograms expand into cumulative <name>_bucket series with an le label
// (ending at le="+Inf"), plus <name>_sum and <name>_count.

// ContentType is the Content-Type of the exposition output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes every registered metric in text exposition format,
// families sorted by name and series by label values, so output is
// deterministic for golden tests and diff-friendly for humans.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if err := f.expose(w); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the exposition (GET only).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		r.WritePrometheus(w)
	})
}

func (f *family) expose(w io.Writer) error {
	f.mu.RLock()
	keys := append([]string(nil), f.order...)
	gaugeFn, counterFn, counterFloatFn := f.gaugeFn, f.counterFn, f.counterFloatFn
	f.mu.RUnlock()
	sort.Strings(keys)

	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}

	switch f.kind {
	case kindGaugeFunc:
		if gaugeFn == nil {
			return nil
		}
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(gaugeFn()))
		return err
	case kindCounterFunc:
		if counterFn == nil {
			return nil
		}
		_, err := fmt.Fprintf(w, "%s %d\n", f.name, counterFn())
		return err
	case kindCounterFloatFunc:
		if counterFloatFn == nil {
			return nil
		}
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(counterFloatFn()))
		return err
	}

	for _, key := range keys {
		f.mu.RLock()
		c := f.series[key]
		f.mu.RUnlock()
		values := splitKey(key, len(f.labels))
		var err error
		switch m := c.(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, values, "", ""), m.Value())
		case sampledCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, values, "", ""), m())
		case *Gauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(m.Value()))
		case *Histogram:
			err = exposeHistogram(w, f.name, f.labels, values, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func exposeHistogram(w io.Writer, name string, labels, values []string, h *Histogram) error {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		ls := labelString(labels, values, "le", formatFloat(bound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, ls, cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	ls := labelString(labels, values, "le", "+Inf")
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, ls, cum); err != nil {
		return err
	}
	base := labelString(labels, values, "", "")
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, base, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, base, h.Count())
	return err
}

// labelString renders {a="x",b="y"} (empty string for no labels), with an
// optional extra label appended (the histogram le).
func labelString(labels, values []string, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func splitKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []string{key}
	}
	return strings.SplitN(key, "\xff", n)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes help text: backslash and newline only (quotes are
// legal in help).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float in the exposition's expected spelling:
// shortest round-trip form, with +Inf/-Inf/NaN named.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
