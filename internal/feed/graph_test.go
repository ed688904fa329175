package feed

import (
	"slices"
	"sync"
	"testing"
)

func TestGraphFollowBasics(t *testing.T) {
	g := NewGraph()
	if err := g.Follow(1, 2); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if err := g.Follow(3, 2); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	fs := g.Followers(2)
	if len(fs) != 2 {
		t.Fatalf("Followers = %v", fs)
	}
	if g.FollowerCount(2) != 2 || g.FollowerCount(1) != 0 {
		t.Fatal("FollowerCount wrong")
	}
	if len(g.users) != 3 || g.Edges() != 2 {
		t.Fatalf("users=%d Edges=%d", len(g.users), g.Edges())
	}
}

func TestGraphRejectsSelfAndDuplicate(t *testing.T) {
	g := NewGraph()
	if err := g.Follow(1, 1); err == nil {
		t.Error("self-follow accepted")
	}
	if err := g.Follow(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Follow(1, 2); err == nil {
		t.Error("duplicate follow accepted")
	}
	if g.Edges() != 1 {
		t.Fatalf("Edges = %d, want 1", g.Edges())
	}
}

func TestGraphUnfollow(t *testing.T) {
	g := NewGraph()
	g.Follow(1, 2)
	g.Follow(3, 2)
	if err := g.Unfollow(1, 2); err != nil {
		t.Fatalf("Unfollow: %v", err)
	}
	if err := g.Unfollow(1, 2); err == nil {
		t.Error("double unfollow accepted")
	}
	if err := g.Unfollow(9, 2); err == nil {
		t.Error("unfollow of non-edge accepted")
	}
	fs := g.Followers(2)
	if len(fs) != 1 || fs[0] != 3 {
		t.Fatalf("Followers after unfollow = %v", fs)
	}
	if g.Edges() != 1 {
		t.Fatal("edge count not updated")
	}
}

// TestGraphFollowersListIsImmutable: a list Followers handed out reads the
// same after any later Unfollow or Follow (a fan-out keeps reading it with no
// lock held), and the stored list keeps the order users followed in.
func TestGraphFollowersListIsImmutable(t *testing.T) {
	g := NewGraph()
	for f := UserID(1); f <= 5; f++ {
		g.Follow(f, 9)
	}
	held := g.Followers(9)
	g.Unfollow(2, 9) // swap-remove used to write 5 over the 2 in held
	g.Follow(6, 9)
	g.Unfollow(1, 9)
	g.Follow(2, 9)
	if want := []UserID{1, 2, 3, 4, 5}; !slices.Equal(held, want) {
		t.Fatalf("a list handed out earlier now reads %v, want %v", held, want)
	}
	if got, want := g.Followers(9), []UserID{3, 4, 5, 6, 2}; !slices.Equal(got, want) {
		t.Fatalf("Followers = %v, want follow order %v", got, want)
	}
}

func TestGraphAddUser(t *testing.T) {
	g := NewGraph()
	g.AddUser(7)
	g.AddUser(7) // idempotent
	if len(g.users) != 1 {
		t.Fatalf("users = %d", len(g.users))
	}
}

func TestGraphMaxFanout(t *testing.T) {
	g := NewGraph()
	if _, n := g.MaxFanout(); n != 0 {
		t.Fatal("empty graph fanout should be 0")
	}
	g.Follow(1, 10)
	g.Follow(2, 10)
	g.Follow(3, 10)
	g.Follow(1, 20)
	u, n := g.MaxFanout()
	if u != 10 || n != 3 {
		t.Fatalf("MaxFanout = %d,%d, want 10,3", u, n)
	}
}

func TestGraphConcurrentAccess(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := UserID(w * 1000)
			for i := UserID(1); i <= 100; i++ {
				g.Follow(base+i, base)
				g.Followers(base)
				g.FollowerCount(base)
			}
		}(w)
	}
	wg.Wait()
	if g.Edges() != 400 {
		t.Fatalf("Edges = %d, want 400", g.Edges())
	}
	for w := 0; w < 4; w++ {
		if n := g.FollowerCount(UserID(w * 1000)); n != 100 {
			t.Fatalf("worker %d fanout = %d", w, n)
		}
	}
}
