package server

import (
	"encoding/json"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync"

	caar "caar"
)

// The request path's wire without reflection: the query scanner every
// handler reads with, and the recommend route's hand-appended body.

// query is a request's raw query string.
type query string

// get returns what url.ParseQuery(q).Get(key) returns — the first value of
// key, with '+' and %XX unescaped, skipping pairs that hold a ';' or a bad
// escape — without building the map.
func (q query) get(key string) string {
	for rest := string(q); rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// bodyPool holds the recommend route's response buffers.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// appendRecommendBody appends the bytes a json.Encoder writes for
// map[string]any{"recommendations": recs, "user": user}: keys sorted, the
// fields in caar.Recommendation's order, a trailing newline. A score JSON
// cannot hold (NaN, ±Inf) panics, for the recovery middleware's 500.
func appendRecommendBody(b []byte, user string, recs []caar.Recommendation) []byte {
	b = append(b, `{"recommendations":`...)
	if recs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, r := range recs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(b, `{"AdID":`...), r.AdID)
			b = appendFloat(append(b, `,"Score":`...), r.Score)
			b = appendFloat(append(b, `,"Text":`...), r.Text)
			b = appendFloat(append(b, `,"Geo":`...), r.Geo)
			b = append(appendFloat(append(b, `,"Bid":`...), r.Bid), '}')
		}
		b = append(b, ']')
	}
	b = appendString(append(b, `,"user":`...), user)
	return append(b, "}\n"...)
}

// appendFloat is encoding/json's float64 encoding: the shortest 'f' form,
// or 'e' below 1e-6 or from 1e21 on, with a one-digit negative exponent
// written as e-7, not e-07.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)})
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString quotes s directly when it is printable ASCII that
// encoding/json writes as is; anything else goes through json.Marshal, so
// HTML escaping, U+2028/U+2029 and invalid UTF-8 come out as they do there.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(b, quoted...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
