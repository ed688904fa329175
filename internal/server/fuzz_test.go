package server

import (
	"net/url"
	"strings"
	"testing"
)

// FuzzSanitizeRequestID checks the request-ID laundering invariants on
// hostile input: the result is bounded, contains only graphic ASCII (no
// header or log injection), and sanitizing is idempotent.
func FuzzSanitizeRequestID(f *testing.F) {
	f.Add("req-1234")
	f.Add("evil\r\nSet-Cookie: x=1")
	f.Add("\x00\x01\x02")
	f.Add(strings.Repeat("a", 500))
	f.Add("üñïçødé-id")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		got := sanitizeRequestID(raw)
		if len(got) > maxRequestIDLen {
			t.Fatalf("sanitized ID longer than cap: %d > %d", len(got), maxRequestIDLen)
		}
		for i := 0; i < len(got); i++ {
			if got[i] <= 0x20 || got[i] >= 0x7f {
				t.Fatalf("non-graphic byte %#x survived sanitization in %q", got[i], got)
			}
		}
		if again := sanitizeRequestID(got); again != got {
			t.Fatalf("not idempotent: %q -> %q", got, again)
		}
	})
}

// FuzzParsePolicy feeds arbitrary query strings to the serving-policy
// parser: it must never panic, and whenever it accepts input the resulting
// policy must honor its documented bounds (positive cap and window,
// non-negative per-campaign limit).
func FuzzParsePolicy(f *testing.F) {
	f.Add("freq_cap=3&freq_window=1h")
	f.Add("freq_cap=-1")
	f.Add("freq_window=not-a-duration")
	f.Add("max_per_campaign=2&freq_cap=999999999999999999999")
	f.Add("freq_window=-5s&freq_cap=0")
	f.Add("")
	f.Fuzz(func(t *testing.T, rawQuery string) {
		q, err := url.ParseQuery(rawQuery)
		if err != nil {
			t.Skip()
		}
		p, perr := parsePolicy(q)
		if perr != nil {
			return
		}
		if q.Get("freq_cap") != "" && p.FrequencyCap < 1 {
			t.Fatalf("accepted freq_cap below 1: %+v", p)
		}
		if q.Get("freq_window") != "" && p.FrequencyWindow <= 0 {
			t.Fatalf("accepted non-positive freq_window: %+v", p)
		}
		if q.Get("max_per_campaign") != "" && p.MaxPerCampaign < 1 {
			t.Fatalf("accepted max_per_campaign below 1: %+v", p)
		}
	})
}
