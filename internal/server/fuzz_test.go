package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	caar "caar"
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

// FuzzParsePolicy feeds arbitrary query strings, read through the query
// scanner, to the serving-policy parser: it must never panic, and whenever
// it accepts input the resulting policy must honor its documented bounds
// (positive cap and window, non-negative per-campaign limit).
func FuzzParsePolicy(f *testing.F) {
	f.Add("freq_cap=3&freq_window=1h")
	f.Add("freq_cap=-1")
	f.Add("freq_window=not-a-duration")
	f.Add("max_per_campaign=2&freq_cap=999999999999999999999")
	f.Add("freq_window=-5s&freq_cap=0")
	f.Add("")
	f.Fuzz(func(t *testing.T, rawQuery string) {
		q := query(rawQuery)
		p, perr := parsePolicy(q.get)
		if perr != nil {
			return
		}
		if q.get("freq_cap") != "" && p.FrequencyCap < 1 {
			t.Fatalf("accepted freq_cap below 1: %+v", p)
		}
		if q.get("freq_window") != "" && p.FrequencyWindow <= 0 {
			t.Fatalf("accepted non-positive freq_window: %+v", p)
		}
		if q.get("max_per_campaign") != "" && p.MaxPerCampaign < 1 {
			t.Fatalf("accepted max_per_campaign below 1: %+v", p)
		}
	})
}

// FuzzQueryGetMatchesURLValues holds the query scanner to net/url: for any
// raw query and key it returns what r.URL.Query().Get returns — the first
// value, unescaped, with pairs holding a ';' or a bad escape dropped.
func FuzzQueryGetMatchesURLValues(f *testing.F) {
	f.Add("user=alice&k=3", "k")
	f.Add("a=1&a=2", "a")
	f.Add("a=%zz&a=ok", "a")
	f.Add("a;b=1&a=2", "a")
	f.Add("a+b=c+d&a%20b=x", "a b")
	f.Add("%61=1&a=2", "a")
	f.Add("%zz=1&a", "a")
	f.Add("=x&&a=&a=y", "")
	f.Add("a=1%2", "a")
	f.Fuzz(func(t *testing.T, raw, key string) {
		want, _ := url.ParseQuery(raw)
		if got := query(raw).get(key); got != want.Get(key) {
			t.Fatalf("query(%q).get(%q) = %q, url.Values gives %q", raw, key, got, want.Get(key))
		}
	})
}

// wireRec is what the default recommend body keeps of a recommendation.
type wireRec struct {
	AdID  string
	Score float64
}

// FuzzRecommendResponseMatchesEncodingJSON holds the hand-written recommend
// body to the bytes json.Encoder writes for the same map with each
// recommendation cut to a wireRec: it panics exactly where encoding/json
// fails, on a score JSON cannot hold, and never on a component.
func FuzzRecommendResponseMatchesEncodingJSON(f *testing.F) {
	f.Add("alice", "ad-1", 0.5, 0.25, 0.125, 0.0625, uint8(3))
	f.Add(`q"u\ote`, "<b>&amp;</b>", math.Copysign(0, -1), 1e-7, 1e21, 5e-324, uint8(2))
	f.Add("ctl\x00\x1f\x7f", "line\u2028sep\u2029", -1e-7, 123456789.125, 1e20, 2.2250738585072014e-308, uint8(1))
	f.Add("bad\xff\xfeutf8", "é", 1e-6, 9.999999e-7, -1e21, 0.1, uint8(4))
	f.Add("nil", "x", 0.0, 0.0, 0.0, 0.0, uint8(0))
	f.Add("empty", "x", 0.0, 0.0, 0.0, 0.0, uint8(5))
	f.Add("nan", "x", math.NaN(), 0.0, math.Inf(1), 0.0, uint8(1))
	f.Add("nan-component", "x", 0.5, math.NaN(), math.Inf(-1), 0.0, uint8(1))
	f.Fuzz(func(t *testing.T, user, adID string, a, b, c, d float64, n uint8) {
		// n%5 recommendations; none is a nil slice when n is 0, empty when
		// n is any other multiple of 5.
		var recs []caar.Recommendation
		var wire []wireRec
		if n%5 == 0 && n > 0 {
			recs, wire = []caar.Recommendation{}, []wireRec{}
		}
		v := []float64{a, b, c, d}
		for i := 0; i < int(n%5); i++ {
			id := adID
			if i%2 == 1 {
				id = user
			}
			recs = append(recs, caar.Recommendation{AdID: id, Score: v[i%4], Text: v[(i+1)%4], Geo: v[(i+2)%4], Bid: v[(i+3)%4]})
			wire = append(wire, wireRec{AdID: id, Score: v[i%4]})
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(map[string]any{"recommendations": wire, "user": user})
		var got []byte
		panicked := func() (p any) {
			defer func() { p = recover() }()
			got = appendRecommendBody(nil, user, recs)
			return nil
		}()
		if (panicked != nil) != (wantErr != nil) {
			t.Fatalf("panic %v, encoding/json's error %v", panicked, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("body\n%s\nencoding/json writes\n%s", got, want.Bytes())
		}
	})
}

// argQueue records what each submission carries, times as RFC 3339 text
// and coordinates as their bits.
type argQueue struct{ args []any }

func (q *argQueue) SubmitPost(author, text string, at time.Time) error {
	q.args = append(q.args, author, text, at.Format(time.RFC3339Nano))
	return nil
}

func (q *argQueue) SubmitCheckIn(user string, lat, lng float64, at time.Time) error {
	q.args = append(q.args, user, math.Float64bits(lat), math.Float64bits(lng), at.Format(time.RFC3339Nano))
	return nil
}

// FuzzPostBodyMatchesDecoder holds the post and check-in routes, which split
// the bodies clients send by hand and give every other body to
// encoding/json, to decodeBody reading the request directly: the same
// fields reach the ingest queue, and a body it rejects gets the same status
// and error body — also under a small body limit (limit > 0 bytes).
func FuzzPostBodyMatchesDecoder(f *testing.F) {
	for _, seed := range []struct {
		body    string
		checkIn bool
		limit   uint8
	}{
		{`{"author":"u1","text":"coffee and jazz tonight"}`, false, 0},
		{" {\"text\":\"é ✓ \u2028\",\"at\":\"2026-07-06T09:00:00+02:00\" , \"author\":\"u1\"}\n", false, 0},
		{`{"author":"u1","text":"esc\u2028aped"}`, false, 0},
		{`{"author":"u1","text":"x"}garbage`, false, 0},
		{`{"author":"u1","text":"x"}{"author":"u2","text":"y"}`, false, 0},
		{`{"Author":"u1","text":"x"}`, false, 0},
		{`{"author":"u1","author":"u2","text":"x"}`, false, 0},
		{`{"author":"u1","text":"tab\tline\\n"}`, false, 0},
		{"{\"author\":\"u1\",\"text\":\"caf\xc3\"}", false, 0},
		{"{\"author\":\"u1\",\"text\":\"raw\ttab\"}", false, 0},
		{`{"author":null,"text":"x","at":""}`, false, 0},
		{`{"author":"u1","text":"x","extra":1}`, false, 0},
		{`{"author":"u1","text":"x","at":"yesterday"}`, false, 0},
		{`{"author":"u1" "text":"x"}`, false, 0},
		{`{"author":"u1",}`, false, 0},
		{`{"author":"u1","text":"x"`, false, 0},
		{`{}`, false, 0},
		{``, false, 0},
		{`{"author":"u1","text":"a long post over the limit"}`, false, 16},
		{`{"author":"u1","text":"x"}` + "          ", false, 30},
		{`{"user":"u1","lat":1.5,"lng":-0,"at":"2026-07-06T09:00:00Z"}`, true, 0},
		{`{"user":"u1","lat":-12.5e-3,"lng":1E+2}`, true, 0},
		{`{"user":"u1","lat":1e400,"lng":2}`, true, 0},
		{`{"user":"u1","lat":01,"lng":2}`, true, 0},
		{`{"user":"u1","lat":"1","lng":2}`, true, 0},
		{`{"user":"u1","lat":1.,"lng":2e}`, true, 0},
		{`{"user":"u1","lat":-,"lng":2}`, true, 0},
		{`{"user":"u1","lat":null,"lng":2}`, true, 0},
		{`{"user":"u1","lat":4.9e-324,"lng":-1e-400}`, true, 0},
	} {
		f.Add(seed.body, seed.checkIn, seed.limit)
	}
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	now := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, body string, checkIn bool, limit uint8) {
		q := &argQueue{}
		srv := New(eng, WithIngest(q), WithMaxBodyBytes(int64(limit)))
		srv.now = func() time.Time { return now }
		path := "/v1/posts"
		if checkIn {
			path = "/v1/checkins"
		}
		got := httptest.NewRecorder()
		srv.Handler().ServeHTTP(got, httptest.NewRequest("POST", path, strings.NewReader(body)))

		want := httptest.NewRecorder()
		src := io.Reader(strings.NewReader(body))
		if limit > 0 {
			src = http.MaxBytesReader(want, io.NopCloser(src), int64(limit))
		}
		var wantArgs []any
		var post postBody
		var check checkInBody
		decoded := false
		if checkIn {
			decoded = decodeBody(want, src, &check)
		} else {
			decoded = decodeBody(want, src, &post)
		}
		if decoded {
			raw := post.At
			if checkIn {
				raw = check.At
			}
			switch at, err := srv.at(raw); {
			case err != nil:
				httpError(want, http.StatusBadRequest, err.Error())
			case checkIn:
				wantArgs = []any{check.User, math.Float64bits(check.Lat), math.Float64bits(check.Lng), at.Format(time.RFC3339Nano)}
				want.WriteHeader(http.StatusNoContent)
			default:
				wantArgs = []any{post.Author, post.Text, at.Format(time.RFC3339Nano)}
				want.WriteHeader(http.StatusNoContent)
			}
		}
		if got.Code != want.Code || got.Body.String() != want.Body.String() || !reflect.DeepEqual(q.args, wantArgs) {
			t.Fatalf("POST %s %q (limit %d): %d %q %v, decodeBody gives %d %q %v",
				path, body, limit, got.Code, got.Body, q.args, want.Code, want.Body, wantArgs)
		}
	})
}
