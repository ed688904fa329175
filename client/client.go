// Package client is a Go client for the caar HTTP API served by
// cmd/adserver (see internal/server for the endpoint contract). It lets a
// second process — a feed renderer, an advertiser dashboard, a load driver —
// talk to a running recommender without linking the engine in.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	caar "caar"
)

// Client talks to one adserver instance. Safe for concurrent use.
type Client struct {
	base    string
	http    *http.Client
	retry   RetryPolicy
	breaker *breaker
	sleep   func(ctx context.Context, d time.Duration) error
	rand    func() float64 // in [0, 1); jitter source
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// RetryPolicy configures automatic retries. Idempotent requests (GET,
// DELETE) are retried on transport errors and on 429/502/503/504
// responses; non-idempotent requests are retried only on 429, which the
// server sends before doing any work. Backoff is exponential with full
// jitter, and a server-provided Retry-After header overrides the computed
// delay.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, including the first.
	// Values < 2 disable retrying.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the computed backoff (default 5s). Retry-After hints
	// are honored beyond it, up to 30s.
	MaxDelay time.Duration
}

// WithRetry enables automatic retries with backoff.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) {
		if p.BaseDelay <= 0 {
			p.BaseDelay = 100 * time.Millisecond
		}
		if p.MaxDelay <= 0 {
			p.MaxDelay = 5 * time.Second
		}
		c.retry = p
	}
}

// BreakerPolicy configures the client-side circuit breaker: after
// FailureThreshold consecutive transport-level failures the circuit opens
// and calls fail fast with ErrCircuitOpen for Cooldown, after which a
// single probe request is let through; its outcome closes or re-opens the
// circuit.
type BreakerPolicy struct {
	FailureThreshold int           // default 5
	Cooldown         time.Duration // default 1s
}

// WithCircuitBreaker enables fail-fast behavior against a dead server.
func WithCircuitBreaker(p BreakerPolicy) Option {
	return func(c *Client) {
		if p.FailureThreshold <= 0 {
			p.FailureThreshold = 5
		}
		if p.Cooldown <= 0 {
			p.Cooldown = time.Second
		}
		c.breaker = &breaker{policy: p, now: time.Now}
	}
}

// New creates a client for a base URL like "http://localhost:8080".
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: invalid base URL %q", baseURL)
	}
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: 30 * time.Second},
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
		rand: rand.Float64,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// ErrCircuitOpen is returned without touching the network while the
// circuit breaker is open.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// breaker is a minimal consecutive-failure circuit breaker.
type breaker struct {
	mu        sync.Mutex
	policy    BreakerPolicy
	failures  int
	openUntil time.Time
	now       func() time.Time
}

// allow reports whether a request may proceed; while open it admits one
// probe per cooldown window.
func (b *breaker) allow() error {
	b.mu.Lock() //caarlint:allow readpathlock client-side breaker state; not the engine serving path
	defer b.mu.Unlock()
	if b.failures < b.policy.FailureThreshold {
		return nil
	}
	now := b.now()
	if now.Before(b.openUntil) {
		return ErrCircuitOpen
	}
	// Half-open: admit this probe, push the next one a cooldown out.
	b.openUntil = now.Add(b.policy.Cooldown)
	return nil
}

// record feeds a request outcome into the breaker. Only transport-level
// failures (the server unreachable) trip it; an HTTP response of any
// status proves the server is alive.
func (b *breaker) record(transportOK bool) {
	b.mu.Lock() //caarlint:allow readpathlock client-side breaker state; not the engine serving path
	defer b.mu.Unlock()
	if transportOK {
		b.failures = 0
		b.openUntil = time.Time{}
		return
	}
	b.failures++
	if b.failures >= b.policy.FailureThreshold {
		b.openUntil = b.now().Add(b.policy.Cooldown)
	}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint, when one was sent
	// (e.g. on 429 load-shedding responses); zero otherwise.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.StatusCode, e.Message)
}

// retryAfterCap bounds how long a server Retry-After hint is honored.
const retryAfterCap = 30 * time.Second

func (c *Client) do(ctx context.Context, method, path string, body, into any) error {
	var payload []byte
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		payload = buf
	}
	idempotent := method == http.MethodGet || method == http.MethodDelete
	attempts := c.retry.MaxAttempts
	if attempts < 2 {
		attempts = 1
	}

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt, lastErr)); err != nil {
				return err
			}
		}
		err := c.doOnce(ctx, method, path, payload, into)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err, idempotent) || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// doOnce performs a single HTTP exchange, consulting and feeding the
// circuit breaker.
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, into any) error {
	if c.breaker != nil {
		if err := c.breaker.allow(); err != nil {
			return err
		}
	}
	var rdr io.Reader
	if payload != nil {
		rdr = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if c.breaker != nil {
		c.breaker.record(err == nil)
	}
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: eb.Error}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	if into != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return fmt.Errorf("client: decode response: %w", err)
		}
	}
	return nil
}

// retryable decides whether err is worth another attempt. Transport errors
// and overload/gateway statuses are retried for idempotent requests;
// non-idempotent requests retry only on 429, which the server's admission
// controller sends before any work happens.
func retryable(err error, idempotent bool) bool {
	if errors.Is(err, ErrCircuitOpen) {
		return false // fail fast; the breaker gates recovery itself
	}
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.StatusCode {
		case http.StatusTooManyRequests:
			return true
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return idempotent
		default:
			return false
		}
	}
	// Transport-level failure: the request may not have reached the server.
	return idempotent
}

// backoff computes the pre-attempt delay: exponential with full jitter,
// overridden by a server Retry-After hint when one was given.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		if ae.RetryAfter > retryAfterCap {
			return retryAfterCap
		}
		return ae.RetryAfter
	}
	d := c.retry.BaseDelay << (attempt - 1)
	if d > c.retry.MaxDelay || d <= 0 {
		d = c.retry.MaxDelay
	}
	return time.Duration(c.rand() * float64(d))
}

// AddUser registers a user handle.
func (c *Client) AddUser(ctx context.Context, handle string) error {
	return c.do(ctx, http.MethodPost, "/v1/users", map[string]string{"handle": handle}, nil)
}

// Follow makes follower receive followee's posts.
func (c *Client) Follow(ctx context.Context, follower, followee string) error {
	return c.do(ctx, http.MethodPost, "/v1/follow",
		map[string]string{"follower": follower, "followee": followee}, nil)
}

// Unfollow removes a follow edge.
func (c *Client) Unfollow(ctx context.Context, follower, followee string) error {
	return c.do(ctx, http.MethodDelete, "/v1/follow",
		map[string]string{"follower": follower, "followee": followee}, nil)
}

// CheckIn updates a user's location.
func (c *Client) CheckIn(ctx context.Context, user string, lat, lng float64, at time.Time) error {
	return c.do(ctx, http.MethodPost, "/v1/checkins", map[string]any{
		"user": user, "lat": lat, "lng": lng, "at": at.Format(time.RFC3339),
	}, nil)
}

// Post publishes a message to the author's followers.
func (c *Client) Post(ctx context.Context, author, text string, at time.Time) error {
	return c.do(ctx, http.MethodPost, "/v1/posts", map[string]string{
		"author": author, "text": text, "at": at.Format(time.RFC3339),
	}, nil)
}

// AddCampaign registers a budgeted campaign.
func (c *Client) AddCampaign(ctx context.Context, name string, budget float64, start, end time.Time) error {
	return c.do(ctx, http.MethodPost, "/v1/campaigns", map[string]any{
		"name": name, "budget": budget,
		"start": start.Format(time.RFC3339), "end": end.Format(time.RFC3339),
	}, nil)
}

// AddAd registers an advertisement.
func (c *Client) AddAd(ctx context.Context, ad caar.Ad) error {
	body := map[string]any{
		"id":   ad.ID,
		"text": ad.Text,
		"bid":  ad.Bid,
	}
	if ad.Campaign != "" {
		body["campaign"] = ad.Campaign
	}
	if ad.Target != nil {
		body["lat"] = ad.Target.Lat
		body["lng"] = ad.Target.Lng
		body["radius_km"] = ad.Target.RadiusKm
	}
	if len(ad.Slots) > 0 {
		slots := make([]string, len(ad.Slots))
		for i, s := range ad.Slots {
			slots[i] = string(s)
		}
		body["slots"] = slots
	}
	return c.do(ctx, http.MethodPost, "/v1/ads", body, nil)
}

// RemoveAd withdraws an advertisement.
func (c *Client) RemoveAd(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/ads/"+url.PathEscape(id), nil, nil)
}

// Recommend fetches the top-k ads for a user at time at.
func (c *Client) Recommend(ctx context.Context, user string, k int, at time.Time) ([]caar.Recommendation, error) {
	q := url.Values{}
	q.Set("user", user)
	q.Set("k", strconv.Itoa(k))
	q.Set("at", at.Format(time.RFC3339))
	var out struct {
		Recommendations []caar.Recommendation `json:"recommendations"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/recommendations?"+q.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return out.Recommendations, nil
}

// ServeImpression bills one impression; served=false means the campaign is
// out of released budget.
func (c *Client) ServeImpression(ctx context.Context, adID string, at time.Time) (bool, error) {
	var out struct {
		Served bool `json:"served"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/impressions", map[string]string{
		"ad": adID, "at": at.Format(time.RFC3339),
	}, &out)
	return out.Served, err
}

// Trending fetches the top-k trending terms of a time slot ("morning",
// "afternoon", "night"; empty = the server's current slot).
func (c *Client) Trending(ctx context.Context, slot caar.Slot, k int) ([]caar.TrendingTerm, error) {
	q := url.Values{}
	if slot != "" {
		q.Set("slot", string(slot))
	}
	q.Set("k", strconv.Itoa(k))
	var out struct {
		Terms []caar.TrendingTerm `json:"terms"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/trending?"+q.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return out.Terms, nil
}

// Stats fetches the engine's monitoring snapshot.
func (c *Client) Stats(ctx context.Context) (caar.Stats, error) {
	var st caar.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}
