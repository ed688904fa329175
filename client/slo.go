package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"caar/obs/slo"
)

// SLO client — the adctl surface over GET /v1/slo. Like the other
// observability calls it bypasses the retry/breaker machinery: burn rates
// are read exactly when the server is misbehaving, and a retried stale
// answer would lie.

// SLOStatus fetches the burn-rate report (GET /v1/slo). refresh asks the
// server to take a fresh sample first, so the report covers traffic sent
// moments ago instead of waiting for the next sampling tick.
func (c *Client) SLOStatus(ctx context.Context, refresh bool) (slo.Status, error) {
	path := "/v1/slo"
	if refresh {
		path += "?refresh=1"
	}
	resp, err := c.rawGet(ctx, path)
	if err != nil {
		return slo.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return slo.Status{}, fmt.Errorf("client: slo: status %d: %s", resp.StatusCode, body)
	}
	var st slo.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return slo.Status{}, fmt.Errorf("client: slo: decode: %w", err)
	}
	return st, nil
}
