// Package jsonenc appends JSON values the way encoding/json encodes them,
// without reflection, for the hand-written wire formats: the recommend
// response (internal/server) and the journal's post and check-in entries
// (journal). Each fuzz-tests its bytes against encoding/json.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendFloat is encoding/json's float64 encoding: the shortest 'f' form,
// or 'e' below 1e-6 or from 1e21 on, with a one-digit negative exponent
// written as e-7, not e-07. A value JSON cannot hold (NaN, ±Inf) panics
// with the *json.UnsupportedValueError encoding/json returns for it.
func AppendFloat(b []byte, f float64) []byte {
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

// AppendString quotes s directly when it is printable ASCII that
// encoding/json writes as is; anything else goes through json.Marshal, so
// HTML escaping, U+2028/U+2029 and invalid UTF-8 come out as they do there.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(b, quoted...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
