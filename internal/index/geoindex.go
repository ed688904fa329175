package index

import (
	"cmp"
	"slices"

	"caar/internal/adstore"
	"caar/internal/geo"
)

// GeoAds pre-filters ads by location: geo-targeted ads are registered in a
// uniform grid under the cells their target circles overlap; global ads are
// kept in a bid-descending list. A user's eligible ad set is then
// (ads in the user's cell, exact-checked) ∪ (global ads). Ads are named by
// their slots.
type GeoAds struct {
	grid   *geo.Grid
	global []GlobalAd // bid-descending, ascending ID on ties
}

// GlobalAd is one entry of GeoAds' bid-ordered list of global ads.
type GlobalAd struct {
	Slot uint32
	id   adstore.AdID
	bid  float64
}

// NewGeoAds creates the index over the given coverage rectangle with a
// rows×cols grid.
func NewGeoAds(cover geo.Rect, rows, cols int) (*GeoAds, error) {
	grid, err := geo.NewGrid(cover, rows, cols)
	if err != nil {
		return nil, err
	}
	return &GeoAds{grid: grid}, nil
}

// Add registers the ad in slot and returns its reach, the cells whose users
// it can be shown to: geo.Everywhere for a global ad, which goes to the
// bid-sorted global list, and for a geo-targeted one the block of cells of
// its circle's bounds, which it is registered in.
func (g *GeoAds) Add(slot uint32, a *adstore.Ad) geo.Reach {
	if a.Global {
		pos, _ := slices.BinarySearchFunc(g.global, a, func(e GlobalAd, a *adstore.Ad) int {
			if c := cmp.Compare(a.Bid, e.bid); c != 0 {
				return c
			}
			return cmp.Compare(e.id, a.ID)
		})
		g.global = slices.Insert(g.global, pos, GlobalAd{Slot: slot, id: a.ID, bid: a.Bid})
		return geo.Everywhere
	}
	reach := g.grid.Reach(a.Target.Bounds())
	g.grid.Insert(slot, reach)
	return reach
}

// Remove un-registers the ad in slot, given the reach Add returned for it.
func (g *GeoAds) Remove(slot uint32, reach geo.Reach) {
	if reach != geo.Everywhere {
		g.grid.Remove(slot, reach)
		return
	}
	if i := slices.IndexFunc(g.global, func(e GlobalAd) bool { return e.Slot == slot }); i >= 0 {
		g.global = slices.Delete(g.global, i, i+1)
	}
}

// LocalCandidates returns the slots of the geo-targeted ads registered in the
// cell containing p (a superset of the ads whose circle contains p; callers
// apply the exact containment check), ascending. Nil when p is outside
// coverage. The slice is the grid's own: read-only, and valid until the next
// Add or Remove.
func (g *GeoAds) LocalCandidates(p geo.Point) []uint32 { return g.grid.ItemsAt(p) }

// Grid returns the grid geo-targeted ads are registered in, for reading.
func (g *GeoAds) Grid() *geo.Grid { return g.grid }

// GlobalByBid returns global ads in descending bid order (ascending ID on
// ties). The slice is shared; callers must not mutate it.
func (g *GeoAds) GlobalByBid() []GlobalAd { return g.global }
