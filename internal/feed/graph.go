package feed

import (
	"fmt"
	"slices"
	"sync"
)

// Graph is the follower graph: Follow(a, b) means a follows b, so b's posts
// enter a's feed. Fan-out of a post by b is Followers(b).
//
// Graph is safe for concurrent use.
type Graph struct {
	mu        sync.RWMutex
	followers map[UserID][]UserID        // poster → ordered followers; never written below its len (see Followers)
	edgeSet   map[UserID]map[UserID]bool // poster → follower set (dedup)
	users     map[UserID]bool
	edges     int
}

// NewGraph returns an empty follower graph.
func NewGraph() *Graph {
	return &Graph{
		followers: make(map[UserID][]UserID),
		edgeSet:   make(map[UserID]map[UserID]bool),
		users:     make(map[UserID]bool),
	}
}

// AddUser registers a user with no edges. Adding an existing user is a no-op.
func (g *Graph) AddUser(u UserID) {
	g.mu.Lock()
	g.users[u] = true
	g.mu.Unlock()
}

// Follow records that follower follows poster. Both users are registered as a
// side effect. Self-follows and duplicate edges are rejected with an error.
func (g *Graph) Follow(follower, poster UserID) error {
	if follower == poster {
		return fmt.Errorf("feed: user %d cannot follow itself", follower)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.users[follower] = true
	g.users[poster] = true
	set := g.edgeSet[poster]
	if set == nil {
		set = make(map[UserID]bool)
		g.edgeSet[poster] = set
	}
	if set[follower] {
		return fmt.Errorf("feed: %d already follows %d", follower, poster)
	}
	set[follower] = true
	g.followers[poster] = append(g.followers[poster], follower)
	g.edges++
	return nil
}

// Unfollow removes a follow edge. Removing a non-existent edge is an error.
func (g *Graph) Unfollow(follower, poster UserID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	set := g.edgeSet[poster]
	if !set[follower] {
		return fmt.Errorf("feed: %d does not follow %d", follower, poster)
	}
	delete(set, follower)
	// A fresh slice, never an edit in place: Followers hands the stored one
	// out, and a fan-out reads it with no lock held.
	list := g.followers[poster]
	i := slices.Index(list, follower)
	g.followers[poster] = slices.Concat(list[:i], list[i+1:])
	g.edges--
	return nil
}

// Followers returns the users whose feeds receive poster's messages, in the
// order they followed. The returned slice is shared and immutable: a later
// Follow appends past its length and a later Unfollow installs a fresh slice,
// so a caller may keep reading it after the call returns, and must not write
// to it.
func (g *Graph) Followers(poster UserID) []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.followers[poster]
}

// FollowerCount returns the fan-out degree of poster.
func (g *Graph) FollowerCount(poster UserID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.followers[poster])
}

// Users returns the number of registered users.
func (g *Graph) Users() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.users)
}

// Edges returns the number of follow edges.
func (g *Graph) Edges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edges
}

// MaxFanout returns the largest follower count and the user holding it
// (0, 0 for an empty graph) — a workload diagnostic for skew experiments.
func (g *Graph) MaxFanout() (UserID, int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var bestU UserID
	best := 0
	for u, fs := range g.followers {
		if len(fs) > best {
			best = len(fs)
			bestU = u
		}
	}
	return bestU, best
}
