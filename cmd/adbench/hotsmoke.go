package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	caar "caar"
	"caar/internal/server"
	"caar/obs"
)

// runHotSmoke is the end-to-end hot-key drill `make hot-smoke` runs under
// the race detector: stand up a live server, plant a celebrity poster (one
// author with far more followers than anyone else) and a hot consumer (one
// user hammering recommendations), serve the traffic over HTTP, and verify
// the telemetry names both — /v1/hot?dim=posters ranks the celebrity
// first, dim=users ranks the hot consumer first, and the caar_hot_* metric
// families show up in a /v1/metrics scrape.
func runHotSmoke() error {
	reg := obs.NewRegistry()
	cfg := caar.DefaultConfig()
	cfg.Shards = 4
	cfg.Metrics = reg
	eng, err := caar.Open(cfg)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	defer close(stop)
	ht := eng.HotTracker()
	if ht == nil {
		return fmt.Errorf("hot-smoke: default config produced no tracker")
	}
	go ht.Run(stop)

	const nUsers = 40
	users := make([]string, nUsers)
	for i := range users {
		users[i] = fmt.Sprintf("user%03d", i)
		if err := eng.AddUser(users[i]); err != nil {
			return err
		}
	}
	// user000 is the celebrity: everyone follows them; everyone else gets
	// two followers.
	for _, u := range users[1:] {
		if err := eng.Follow(u, users[0]); err != nil {
			return err
		}
	}
	for i := 1; i < nUsers; i++ {
		for f := 1; f <= 2; f++ {
			if err := eng.Follow(users[(i+f)%nUsers], users[i]); err != nil {
				return err
			}
		}
	}

	ts := httptest.NewServer(server.New(eng, server.WithMetrics(reg)).Handler())
	defer ts.Close()
	client := ts.Client()
	at := time.Now().Format(time.RFC3339Nano)

	post := func(author string, n int) error {
		for i := 0; i < n; i++ {
			body, _ := json.Marshal(map[string]string{
				"author": author,
				"text":   fmt.Sprintf("word%04d word%04d smoke update", i%500, (i*7)%500),
				"at":     at,
			})
			resp, err := client.Post(ts.URL+"/v1/posts", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				return fmt.Errorf("hot-smoke: POST /v1/posts: status %d", resp.StatusCode)
			}
		}
		return nil
	}
	// The celebrity posts 20× with 39 followers each; ordinary users post
	// once with 2 followers — fan-out cost ~780 vs ~3.
	if err := post(users[0], 20); err != nil {
		return err
	}
	for _, u := range users[1:] {
		if err := post(u, 1); err != nil {
			return err
		}
	}
	// user001 is the hot consumer: 50 recommends vs 1 for everyone else.
	recommend := func(user string, n int) error {
		for i := 0; i < n; i++ {
			resp, err := client.Get(ts.URL + "/v1/recommendations?user=" + user + "&k=5")
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("hot-smoke: GET /v1/recommendations: status %d", resp.StatusCode)
			}
		}
		return nil
	}
	if err := recommend(users[1], 50); err != nil {
		return err
	}
	for _, u := range users[2:] {
		if err := recommend(u, 1); err != nil {
			return err
		}
	}

	posters, err := hotTopKeys(client, ts.URL, "posters")
	if err != nil {
		return err
	}
	if len(posters) == 0 || posters[0] != users[0] {
		return fmt.Errorf("hot-smoke: planted celebrity %s not the top poster: %v", users[0], posters)
	}
	hotUsers, err := hotTopKeys(client, ts.URL, "users")
	if err != nil {
		return err
	}
	if len(hotUsers) == 0 || hotUsers[0] != users[1] {
		return fmt.Errorf("hot-smoke: planted hot consumer %s not the top user: %v", users[1], hotUsers)
	}

	resp, err := client.Get(ts.URL + "/v1/metrics")
	if err != nil {
		return err
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, family := range []string{"caar_hot_events_total", "caar_hot_tracked_keys", "caar_hot_top_share_ratio"} {
		if !strings.Contains(string(scrape), family) {
			return fmt.Errorf("hot-smoke: %s missing from /v1/metrics scrape", family)
		}
	}

	fmt.Printf("hot-smoke: ok — top poster %s, top user %s, caar_hot_* families exported\n", posters[0], hotUsers[0])
	return nil
}

// hotTopKeys fetches one dimension from the server's /v1/hot and returns its
// ranked key names.
func hotTopKeys(client *http.Client, baseURL, dim string) ([]string, error) {
	resp, err := client.Get(baseURL + "/v1/hot?dim=" + dim)
	if err != nil {
		return nil, fmt.Errorf("hot query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("hot query: status %d", resp.StatusCode)
	}
	var doc struct {
		Dimensions []struct {
			Keys []struct {
				Key string `json:"key"`
			} `json:"keys"`
		} `json:"dimensions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("hot query: %w", err)
	}
	var keys []string
	for _, d := range doc.Dimensions {
		for _, k := range d.Keys {
			keys = append(keys, k.Key)
		}
	}
	return keys, nil
}
