package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	caar "caar"
	"caar/journal"
)

// Health is the server's self-reported health document (GET /v1/healthz).
// Status "degraded" means the process is alive but some layer cannot do its
// job — Problems carries the reasons.
type Health struct {
	Status   string   `json:"status"`
	InFlight int64    `json:"in_flight"`
	Shed     uint64   `json:"shed_total"`
	Panics   uint64   `json:"panics_total"`
	Problems []string `json:"problems,omitempty"`
}

// Health fetches the liveness document. It answers as long as the server
// process serves, even while degraded.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// Ready checks the readiness probe (GET /v1/readyz): true when the server
// can fully do its job, false with the degradation reasons when it answers
// 503. The error is non-nil only for transport failures or unexpected
// statuses.
func (c *Client) Ready(ctx context.Context) (bool, []string, error) {
	r, err := c.Readiness(ctx)
	return r.Ready, r.Reasons, err
}

// Readiness is the full readiness document: while the server recovers, the
// Reasons include live journal-replay progress; once ready, Replay (when
// present) carries the final replay accounting.
type Readiness struct {
	Ready   bool
	Reasons []string
	Replay  *journal.ReplaySummary
}

// Readiness fetches the readiness document with replay detail. The error is
// non-nil only for transport failures or unexpected statuses.
func (c *Client) Readiness(ctx context.Context) (Readiness, error) {
	resp, err := c.rawGet(ctx, "/v1/readyz")
	if err != nil {
		return Readiness{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Status  string                 `json:"status"`
		Reasons []string               `json:"reasons"`
		Replay  *journal.ReplaySummary `json:"replay"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	switch resp.StatusCode {
	case http.StatusOK:
		return Readiness{Ready: true, Replay: body.Replay}, nil
	case http.StatusServiceUnavailable:
		return Readiness{Reasons: body.Reasons}, nil
	default:
		return Readiness{}, fmt.Errorf("client: readyz: unexpected status %d", resp.StatusCode)
	}
}

// Invariants fetches the machine-checkable state export
// (GET /v1/invariants) the crash-recovery soak harness verifies its
// acknowledged-write ledger against.
func (c *Client) Invariants(ctx context.Context) (caar.InvariantReport, error) {
	resp, err := c.rawGet(ctx, "/v1/invariants")
	if err != nil {
		return caar.InvariantReport{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return caar.InvariantReport{}, fmt.Errorf("client: invariants: status %d: %s", resp.StatusCode, body)
	}
	var rep caar.InvariantReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return caar.InvariantReport{}, fmt.Errorf("client: invariants: decode: %w", err)
	}
	return rep, nil
}

// MetricsText fetches the raw Prometheus exposition (GET /v1/metrics).
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	return c.rawText(ctx, "/v1/metrics")
}

// rawGet issues a plain GET without the retry/breaker machinery — the
// observability endpoints are for probes and operators, where a stale error
// is more useful than a retried success.
func (c *Client) rawGet(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.http.Do(req)
}

func (c *Client) rawText(ctx context.Context, path string) (string, error) {
	resp, err := c.rawGet(ctx, path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body), nil
}
