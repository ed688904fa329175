package faultinject

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestPartialWriterTearsMidWrite(t *testing.T) {
	var buf bytes.Buffer
	pw := &PartialWriter{W: &buf, Budget: 8}
	if n, err := pw.Write([]byte("12345")); n != 5 || err != nil {
		t.Fatalf("first write: %d %v", n, err)
	}
	// This write crosses the budget: only 3 more bytes land.
	n, err := pw.Write([]byte("abcdef"))
	if n != 3 || err == nil {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write error = %v", err)
	}
	if buf.String() != "12345abc" {
		t.Fatalf("buffer = %q", buf.String())
	}
	// Fully spent: nothing more lands.
	if n, err := pw.Write([]byte("x")); n != 0 || err == nil {
		t.Fatalf("post-tear write: %d %v", n, err)
	}
}

func TestFlakyTransport(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	ft := &FlakyTransport{FailFirst: 2}
	client := &http.Client{Transport: ft}
	for i := range 2 {
		if _, err := client.Get(ts.URL); err == nil {
			t.Fatalf("request %d should have failed", i)
		}
	}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatalf("third request failed: %v", err)
	}
	resp.Body.Close()
	if ft.Attempts() != 3 {
		t.Fatalf("attempts = %d", ft.Attempts())
	}
}

func TestDownTransport(t *testing.T) {
	dt := &DownTransport{}
	client := &http.Client{Transport: dt}
	if _, err := client.Get("http://example.invalid/"); err == nil {
		t.Fatal("down transport served a request")
	}
	if dt.Attempts() != 1 {
		t.Fatalf("attempts = %d", dt.Attempts())
	}
}

func TestScriptFail(t *testing.T) {
	var buf bytes.Buffer
	s := NewScript(&buf)
	if _, err := s.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	s.Fail(nil)
	if _, err := s.Write([]byte("dropped")); !errors.Is(err, ErrInjected) {
		t.Fatalf("failing write error = %v", err)
	}
	if buf.String() != "ok" {
		t.Fatalf("buffer = %q", buf.String())
	}
}
