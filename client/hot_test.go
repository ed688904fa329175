package client

import (
	"context"
	"testing"
	"time"
)

func TestClientHot(t *testing.T) {
	c := newClientServer(t)
	ctx := context.Background()

	for _, u := range []string{"hotshot", "bob"} {
		if err := c.AddUser(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		if _, err := c.Recommend(ctx, "hotshot", 3, at); err != nil {
			t.Fatal(err)
		}
	}

	dims, err := c.Hot(ctx, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 3 {
		t.Fatalf("dimensions = %+v", dims)
	}

	users, err := c.Hot(ctx, "users", 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 1 || len(users[0].Keys) != 1 || users[0].Keys[0].Key != "hotshot" {
		t.Fatalf("users dimension = %+v", users)
	}
	if users[0].Keys[0].Count != 20 {
		t.Fatalf("hot user count = %+v", users[0].Keys[0])
	}

	// Terms are counted per slot by Trending, not by the hot-key tracker.
	if _, err := c.Hot(ctx, "terms", 0, 0); err == nil {
		t.Fatal("dim=terms accepted")
	}
}
