package ingest

import (
	"io"
	"math"
	"testing"
	"time"

	"caar/journal"
)

// FuzzAcceptedWritesEncode: every check-in and post the accept path lets into
// the ring — whatever its point and its time — is one the journal encodes, so
// an accepted write can never fail the group commit it shares. at is a Unix
// time in a fixed zone, which reaches years outside 0–9999 and zone offsets
// of a day or more.
func FuzzAcceptedWritesEncode(f *testing.F) {
	ok := t0.Unix()
	f.Add(1.0, 1.0, ok, 0)
	f.Add(math.NaN(), 1.0, ok, 0)
	f.Add(1.0, math.NaN(), ok, 3600)
	f.Add(math.Inf(1), 1.0, ok, 0)
	f.Add(1.0, math.Inf(-1), ok, 0)
	f.Add(1.0, 1.0, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix(), 0)
	f.Add(1.0, 1.0, time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC).Unix(), 0)
	f.Add(1.0, 1.0, ok, -24*3600)

	p := New(newEngine(f), journal.NewWriter(io.Discard), nil, Config{})
	defer p.Close()
	f.Fuzz(func(t *testing.T, lat, lng float64, sec int64, offset int) {
		at := time.Unix(sec, 0).In(time.FixedZone("", offset))
		for _, submit := range []func() error{
			func() error { return p.SubmitCheckIn("alice", lat, lng, at) },
			func() error { return p.SubmitPost("bob", "fuzzed", at) },
		} {
			accepted := p.m.accepted.Value()
			if err := submit(); err != nil && p.m.accepted.Value() > accepted {
				t.Fatalf("accepted write at (%v, %v) %v failed its commit: %v", lat, lng, at, err)
			}
		}
	})
}
