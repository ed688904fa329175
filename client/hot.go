package client

import (
	"context"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"caar/obs/hotkey"
)

// Hot fetches heavy-hitter telemetry from /v1/hot. dim filters to one
// dimension ("users", "posters", "campaigns"; empty = all), k
// bounds keys per dimension (0 = server default), window narrows the query
// to the trailing duration (0 = full retained window).
func (c *Client) Hot(ctx context.Context, dim string, k int, window time.Duration) ([]hotkey.DimReport, error) {
	q := url.Values{}
	if dim != "" {
		q.Set("dim", dim)
	}
	if k > 0 {
		q.Set("k", strconv.Itoa(k))
	}
	if window > 0 {
		q.Set("window", window.String())
	}
	var out struct {
		Dimensions []hotkey.DimReport `json:"dimensions"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/hot?"+q.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return out.Dimensions, nil
}
