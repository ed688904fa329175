// Package faultinject supplies deterministic fault models for chaos-style
// testing of the serving path: a writer that tears a record mid-write
// (kill -9 during an append), a scripted writer that starts failing on cue,
// a reader that fails at a byte offset (a bad sector), and http
// RoundTrippers that drop or delay requests (a flaky network or a dead
// server).
//
// Everything here is deterministic — faults trigger on exact byte or
// request counts — so tests assert precise recovery behavior instead of
// sampling probabilities.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error returned by injected faults.
var ErrInjected = errors.New("faultinject: injected fault")

// PartialWriter writes through to W until Budget bytes have been accepted;
// the write that crosses the budget is torn — its prefix up to the budget
// is written, the rest discarded, and the short count returned with an
// error. This is the write pattern left behind by a crash (kill -9, power
// loss) mid-append.
type PartialWriter struct {
	W      io.Writer
	Budget int64
	Err    error

	written atomic.Int64
}

// Write implements io.Writer.
func (p *PartialWriter) Write(b []byte) (int, error) {
	already := p.written.Load()
	if already >= p.Budget {
		return 0, p.err()
	}
	room := p.Budget - already
	if int64(len(b)) <= room {
		n, err := p.W.Write(b)
		p.written.Add(int64(n))
		return n, err
	}
	n, err := p.W.Write(b[:room])
	p.written.Add(int64(n))
	if err != nil {
		return n, err
	}
	return n, fmt.Errorf("%w: torn write after %d bytes", p.err(), p.written.Load())
}

func (p *PartialWriter) err() error {
	if p.Err != nil {
		return p.Err
	}
	return ErrInjected
}

// FailingReader reads through from R until Budget bytes have been
// delivered, then every subsequent Read fails with Err (ErrInjected when
// nil) — a disk developing a bad sector partway through a file. Reads that
// would cross the budget are shortened to land exactly on it, so the fault
// triggers at a deterministic byte offset.
type FailingReader struct {
	R      io.Reader
	Budget int64 // bytes delivered before failing
	Err    error

	read atomic.Int64
}

// Read implements io.Reader.
func (f *FailingReader) Read(p []byte) (int, error) {
	already := f.read.Load()
	if already >= f.Budget {
		return 0, f.err()
	}
	if room := f.Budget - already; int64(len(p)) > room {
		p = p[:room]
	}
	n, err := f.R.Read(p)
	f.read.Add(int64(n))
	return n, err
}

func (f *FailingReader) err() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

// FlakyTransport is an http.RoundTripper that fails the first FailFirst
// requests (connection-level error), optionally delays the rest by Delay,
// and then delegates to Base (http.DefaultTransport when nil). Safe for
// concurrent use.
type FlakyTransport struct {
	Base      http.RoundTripper
	FailFirst int64 // number of initial requests to fail
	Err       error
	Delay     time.Duration

	attempts atomic.Int64
}

// RoundTrip implements http.RoundTripper.
func (f *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := f.attempts.Add(1)
	if n <= f.FailFirst {
		if f.Err != nil {
			return nil, f.Err
		}
		return nil, ErrInjected
	}
	if f.Delay > 0 {
		select {
		case <-time.After(f.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	base := f.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// Attempts reports how many requests have passed through so far.
func (f *FlakyTransport) Attempts() int64 { return f.attempts.Load() }

// DownTransport refuses every request, like a server that is down; it
// additionally counts attempts so tests can assert a circuit breaker
// stopped issuing network calls.
type DownTransport struct {
	Err      error
	attempts atomic.Int64
}

// RoundTrip implements http.RoundTripper.
func (d *DownTransport) RoundTrip(*http.Request) (*http.Response, error) {
	d.attempts.Add(1)
	if d.Err != nil {
		return nil, d.Err
	}
	return nil, ErrInjected
}

// Attempts reports refused requests so far.
func (d *DownTransport) Attempts() int64 { return d.attempts.Load() }

// Script fails a shared writer on cue: it starts healthy, and Fail makes
// every later write fail. It lets one test drive a journal from healthy to
// failing without re-plumbing writers.
type Script struct {
	mu      sync.Mutex
	w       io.Writer
	failing bool
	err     error
}

// NewScript wraps w in a scriptable writer, initially healthy.
func NewScript(w io.Writer) *Script { return &Script{w: w} }

// Fail makes subsequent writes return err (ErrInjected when nil).
func (s *Script) Fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failing = true
	s.err = err
}

// Write implements io.Writer.
func (s *Script) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failing {
		if s.err != nil {
			return 0, s.err
		}
		return 0, ErrInjected
	}
	return s.w.Write(p)
}
