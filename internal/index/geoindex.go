package index

import (
	"sort"

	"caar/internal/adstore"
	"caar/internal/geo"
)

// GeoAds pre-filters ads by location: geo-targeted ads are registered in a
// uniform grid under the cells their target circles overlap; global ads are
// kept in a bid-descending list. A user's eligible ad set is then
// (ads in the user's cell, exact-checked) ∪ (global ads).
type GeoAds struct {
	grid   *geo.Grid
	global []adstore.AdID // bid-descending
	bids   map[adstore.AdID]float64
}

// NewGeoAds creates the index over the given coverage rectangle with a
// rows×cols grid.
func NewGeoAds(cover geo.Rect, rows, cols int) (*GeoAds, error) {
	grid, err := geo.NewGrid(cover, rows, cols)
	if err != nil {
		return nil, err
	}
	return &GeoAds{grid: grid, bids: make(map[adstore.AdID]float64)}, nil
}

// Add registers an ad. Global ads go to the bid-sorted global list;
// geo-targeted ads go to the grid.
func (g *GeoAds) Add(a *adstore.Ad) {
	g.bids[a.ID] = a.Bid
	if a.Global {
		pos := sort.Search(len(g.global), func(i int) bool {
			bi := g.bids[g.global[i]]
			if bi != a.Bid {
				return bi < a.Bid
			}
			return g.global[i] > a.ID
		})
		g.global = append(g.global, 0)
		copy(g.global[pos+1:], g.global[pos:])
		g.global[pos] = a.ID
		return
	}
	g.grid.InsertCircle(int64(a.ID), a.Target)
}

// Remove un-registers an ad (no-op for unknown ads).
func (g *GeoAds) Remove(id adstore.AdID) {
	if _, ok := g.bids[id]; !ok {
		return
	}
	delete(g.bids, id)
	g.grid.Remove(int64(id))
	for i, gid := range g.global {
		if gid == id {
			g.global = append(g.global[:i], g.global[i+1:]...)
			break
		}
	}
}

// LocalCandidates returns the geo-targeted ads registered in the cell
// containing p (a superset of the ads whose circle contains p; callers apply
// the exact containment check). Nil when p is outside coverage.
func (g *GeoAds) LocalCandidates(p geo.Point) []adstore.AdID {
	items := g.grid.ItemsAt(p)
	if len(items) == 0 {
		return nil
	}
	out := make([]adstore.AdID, len(items))
	for i, it := range items {
		out[i] = adstore.AdID(it)
	}
	return out
}

// Grid returns the grid geo-targeted ads are registered in, for reading.
func (g *GeoAds) Grid() *geo.Grid { return g.grid }

// GlobalByBid returns global ads in descending bid order (ascending ID on
// ties). The slice is shared; callers must not mutate it.
func (g *GeoAds) GlobalByBid() []adstore.AdID { return g.global }
