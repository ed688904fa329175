package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	caar "caar"
	"caar/internal/jsonenc"
)

// The request path's wire without reflection: the query scanner every
// handler reads with, the recommend route's hand-appended body, and the
// post and check-in routes' bodies, split by hand in the shape clients send.

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

// requestPool holds the post and check-in routes' request bodies; one over
// maxPooledBody is dropped rather than kept pinned.
var requestPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// flatBody is a post's or check-in's request body, read once into a pooled
// buffer. ok reports that it is one flat object of the route's keys, at most
// four (split): then str and num hold its values by key index.
type flatBody struct {
	buf *bytes.Buffer
	err error // the read's error, io.EOF excepted
	ok  bool
	str [4]string
	num [4]float64
}

// readFlat reads r's body and splits it by keys: the keys whose bit is set
// in numeric take numbers, the others strings. A body split takes hands its
// buffer back at once; any other keeps it for decodeFlat.
func readFlat(r *http.Request, keys []string, numeric uint) (f flatBody) {
	f.buf = requestPool.Get().(*bytes.Buffer)
	f.buf.Reset()
	if _, f.err = f.buf.ReadFrom(r.Body); f.err == nil && f.split(f.buf.Bytes(), keys, numeric) {
		f.ok = true
		f.release()
	}
	return f
}

func (f *flatBody) release() {
	if f.buf.Cap() <= maxPooledBody {
		requestPool.Put(f.buf)
	}
}

// decodeFlat decodes a body split did not take into `into` as decodeBody
// decodes a request's: over the same bytes, then the same read error, so it
// gets the status and message it would have read directly. It decodes into
// a value of its own, so only a body that takes this path allocates it.
func decodeFlat[T any](w http.ResponseWriter, f *flatBody, into *T) bool {
	defer f.release()
	var v T
	src := io.Reader(bytes.NewReader(f.buf.Bytes()))
	if f.err != nil {
		src = io.MultiReader(src, errReader{f.err})
	}
	good := decodeBody(w, src, &v)
	*into = v
	return good
}

// errReader returns err from every read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// split parses b as the one shape clients send, which encoding/json reads
// the same way: an object of keys, each at most once and spelled exactly,
// whose strings hold no escape, control byte or invalid UTF-8 and whose
// numbers are in JSON's grammar (json.Valid allocates nothing) and
// ParseFloat's range, with whitespace alone around it. It reports false
// for any other body.
func (f *flatBody) split(b []byte, keys []string, numeric uint) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	var seen uint
	for {
		key, j, ok := plainString(b, skipSpace(b, i+1))
		k := 0
		for k < len(keys) && string(key) != keys[k] {
			k++
		}
		if !ok || k == len(keys) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if i = skipSpace(b, j); i == len(b) || b[i] != ':' {
			return false
		}
		if i = skipSpace(b, i+1); numeric&(1<<k) != 0 {
			for j = i; j < len(b) && strings.IndexByte("+-.0123456789Ee", b[j]) >= 0; j++ {
			}
			x, err := strconv.ParseFloat(string(b[i:j]), 64)
			if !json.Valid(b[i:j]) || err != nil {
				return false
			}
			f.num[k] = x
		} else if key, j, ok = plainString(b, i); ok {
			f.str[k] = string(key)
		} else {
			return false
		}
		if i = skipSpace(b, j); i < len(b) && b[i] == ',' {
			continue
		}
		return i < len(b) && b[i] == '}' && skipSpace(b, i+1) == len(b)
	}
}

// skipSpace is the index of the first byte at or after i that is not JSON
// whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// plainString reads the JSON string at b[i:] when it needs no unquoting: it
// returns the bytes between the quotes and the index past the closing one,
// or false at an escape, a control byte or invalid UTF-8.
func plainString(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, utf8.Valid(b[i+1 : j])
		case c == '\\' || c < 0x20:
			return nil, i, false
		}
	}
	return nil, i, false
}

// appendRecommendBody appends the default recommend body: the bytes a
// json.Encoder writes for map[string]any{"recommendations": recs, "user":
// user} with each recommendation cut to its AdID and Score — keys sorted,
// a trailing newline. The score decomposition is what a feed renderer does
// not read; ?explain=1 carries it. A score JSON cannot hold (NaN, ±Inf)
// panics, for the recovery middleware's 500.
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
			b = jsonenc.AppendString(append(b, `{"AdID":`...), r.AdID)
			b = append(jsonenc.AppendFloat(append(b, `,"Score":`...), r.Score), '}')
		}
		b = append(b, ']')
	}
	b = jsonenc.AppendString(append(b, `,"user":`...), user)
	return append(b, "}\n"...)
}
