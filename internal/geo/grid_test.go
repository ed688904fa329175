package geo

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// worldRect covers the full coordinate domain.
var worldRect = Rect{MinLat: -90, MinLng: -180, MaxLat: 90, MaxLng: 180}

// registeredAt reports whether item is registered in the cell containing p.
func registeredAt(g *Grid, item uint32, p Point) bool {
	_, ok := slices.BinarySearch(g.ItemsAt(p), item)
	return ok
}

// insertCircle registers item under the reach of c's bounds, as the ad index
// registers a geo-targeted ad, and returns the reach.
func insertCircle(g *Grid, item uint32, c Circle) Reach {
	r := g.Reach(c.Bounds())
	g.Insert(item, r)
	return r
}

// items returns the distinct items registered in any cell.
func items(g *Grid) []uint32 {
	var out []uint32
	for _, cell := range g.cells {
		out = append(out, cell...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func mustGrid(t *testing.T, cover Rect, rows, cols int) *Grid {
	t.Helper()
	g, err := NewGrid(cover, rows, cols)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(worldRect, 0, 10); err == nil {
		t.Error("zero rows should error")
	}
	if _, err := NewGrid(worldRect, 10, -1); err == nil {
		t.Error("negative cols should error")
	}
	if _, err := NewGrid(Rect{MinLat: 5, MaxLat: 1}, 2, 2); err == nil {
		t.Error("invalid cover should error")
	}
	if _, err := NewGrid(Rect{MinLat: 1, MaxLat: 1, MinLng: 0, MaxLng: 5}, 2, 2); err == nil {
		t.Error("zero-area cover should error")
	}
}

func TestCellOfCorners(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{10, 10}), 10, 10)
	tests := []struct {
		p    Point
		want CellID
	}{
		{Point{0, 0}, 0},                // SW corner
		{Point{0.5, 0.5}, 0},            // inside first cell
		{Point{9.99, 9.99}, 99},         // inside last cell
		{Point{10, 10}, 99},             // NE corner clamps into last cell
		{Point{0, 10}, 9},               // SE corner clamps into last column
		{Point{10, 0}, 90},              // NW corner clamps into last row
		{Point{5, 5}, 55},               // center
		{Point{-0.01, 5}, InvalidCell},  // below coverage
		{Point{5, 10.01}, InvalidCell},  // east of coverage
		{Point{50, 50}, InvalidCell},    // far outside
		{Point{-89, -179}, InvalidCell}, // far outside
	}
	for _, tt := range tests {
		if got := g.CellOf(tt.p); got != tt.want {
			t.Errorf("CellOf(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestCellsIntersecting(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{10, 10}), 10, 10)
	cells := func(r Rect) []CellID { return g.Cells(g.Reach(r)) }
	// A rect covering cells (2,2)..(4,5) inclusive => 3 rows × 4 cols = 12.
	got := cells(NewRect(Point{2.1, 2.1}, Point{4.9, 5.9}))
	if len(got) != 12 {
		t.Fatalf("got %d cells, want 12: %v", len(got), got)
	}
	// Rect entirely off coverage.
	if got := cells(NewRect(Point{20, 20}, Point{30, 30})); got != nil {
		t.Fatalf("off-cover rect should yield nil, got %v", got)
	}
	// Rect partially off coverage clips.
	got = cells(NewRect(Point{-5, -5}, Point{0.5, 0.5}))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("clipped rect = %v, want [0]", got)
	}
	// World-size rect covers every cell.
	if got := cells(worldRect); len(got) != 100 {
		t.Fatalf("world rect covers %d cells, want 100", len(got))
	}
}

func TestGridInsertQueryRemove(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{10, 10}), 10, 10)
	c := Circle{Center: Point{5, 5}, RadiusKm: 1} // tiny: a single cell
	r := insertCircle(g, 7, c)
	if got := items(g); len(got) != 1 {
		t.Fatalf("items = %v, want [7]", got)
	}
	if !registeredAt(g, 7, Point{5, 5}) {
		t.Error("item should be found at circle center")
	}
	if registeredAt(g, 7, Point{9.9, 9.9}) {
		t.Error("item should not be registered far away")
	}
	if at := g.ItemsAt(Point{5, 5}); len(at) != 1 || at[0] != 7 {
		t.Fatalf("ItemsAt = %v, want [7]", at)
	}
	g.Remove(7, r)
	if len(items(g)) != 0 || len(g.cells) != 0 || registeredAt(g, 7, Point{5, 5}) {
		t.Error("item should be gone after Remove")
	}
	g.Remove(7, r) // removing twice is a no-op
}

// TestGridReinsertReplaces: an item removed under its old reach and inserted
// under a new one is registered under the new one only.
func TestGridReinsertReplaces(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{10, 10}), 10, 10)
	old := insertCircle(g, 1, Circle{Center: Point{1, 1}, RadiusKm: 1})
	g.Remove(1, old)
	now := insertCircle(g, 1, Circle{Center: Point{9, 9}, RadiusKm: 1})
	if registeredAt(g, 1, Point{1, 1}) {
		t.Error("old registration should be replaced")
	}
	if !registeredAt(g, 1, Point{9, 9}) {
		t.Error("new registration missing")
	}
	if got := items(g); len(got) != 1 || len(g.cells) != len(g.Cells(now)) {
		t.Fatalf("items = %v in %d cells, want [1] in the %d of its new reach", got, len(g.cells), len(g.Cells(now)))
	}
}

// TestGridCellsStaySortedSets: a cell is an ascending slice with no item
// twice, whatever order items arrive, leave and come back in.
func TestGridCellsStaySortedSets(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{10, 10}), 10, 10)
	at := Point{5, 5}
	c := Circle{Center: at, RadiusKm: 1}
	r := g.Reach(c.Bounds())
	want := func(ids ...uint32) {
		t.Helper()
		got := g.ItemsAt(at)
		if !slices.Equal(got, ids) {
			t.Fatalf("ItemsAt = %v, want %v", got, ids)
		}
		for _, id := range []uint32{1, 3, 5, 7, 9} {
			if registeredAt(g, id, at) != slices.Contains(ids, id) {
				t.Fatalf("registeredAt(%d) = %v with cell %v", id, registeredAt(g, id, at), got)
			}
		}
	}
	for _, id := range []uint32{7, 3, 9, 5} { // not ascending
		g.Insert(id, r)
	}
	want(3, 5, 7, 9)
	g.Insert(5, r) // the same registration twice
	g.Insert(5, r)
	want(3, 5, 7, 9)
	if got := items(g); len(got) != 4 {
		t.Fatalf("items = %v after duplicate inserts, want 4", got)
	}
	g.Remove(3, r) // first, middle-after-shift, then put back
	want(5, 7, 9)
	g.Remove(7, r)
	want(5, 9)
	g.Insert(7, r)
	g.Insert(3, r)
	g.Insert(1, r)
	want(1, 3, 5, 7, 9)
	for _, id := range []uint32{9, 1, 5, 3, 7} {
		g.Remove(id, r)
	}
	want()
	if len(g.cells) != 0 {
		t.Fatalf("%d cells held after every item left", len(g.cells))
	}
	g.Insert(5, r) // an emptied cell takes items again
	want(5)
}

func TestGridInsertOutsideCoverage(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{10, 10}), 10, 10)
	insertCircle(g, 5, Circle{Center: Point{80, 80}, RadiusKm: 10})
	if len(g.cells) != 0 {
		t.Fatalf("circle outside coverage should not register, cells=%d", len(g.cells))
	}
	if g.ItemsAt(Point{80, 80}) != nil {
		t.Error("query outside coverage should be nil")
	}
}

// TestGridAgainstExhaustive cross-checks the grid pre-filter guarantee: every
// item whose circle contains a query point must be registered in that point's
// cell (no false negatives; false positives are allowed by design).
func TestGridAgainstExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cover := NewRect(Point{0, 0}, Point{10, 10})
	g := mustGrid(t, cover, 16, 16)
	type entry struct {
		id uint32
		c  Circle
	}
	var entries []entry
	for i := 0; i < 200; i++ {
		c := Circle{
			Center:   Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10},
			RadiusKm: rng.Float64() * 120,
		}
		insertCircle(g, uint32(i), c)
		entries = append(entries, entry{uint32(i), c})
	}
	for q := 0; q < 500; q++ {
		p := Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10}
		cellItems := map[uint32]bool{}
		for _, id := range g.ItemsAt(p) {
			cellItems[id] = true
		}
		for _, e := range entries {
			if e.c.Contains(p) && !cellItems[e.id] {
				t.Fatalf("false negative: circle %d contains %v but grid missed it", e.id, p)
			}
		}
	}
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FuzzGridCoversContainedPoints checks the property a candidate buffer's
// scope rests on: a circle contains no covered point outside its reach, the
// block of cells the grid registers it under. It also checks that a point's
// reach is its cell. shape picks the coverage and the resolution.
func FuzzGridCoversContainedPoints(f *testing.F) {
	const rimLat = 0.5 * kmPerDegreeLat                // a radius of half a degree of latitude
	f.Add(4.5, 5.0, rimLat, 5.0, 5.0, uint8(1))        // rim on a row edge
	f.Add(5.0, 4.5, 60.0, 5.0, 5.0, uint8(1))          // point on a cell corner
	f.Add(3.0, 3.0, 50.0, 3.0, 3.0+50/111.2, uint8(9)) // rim due east
	f.Add(0.0, 0.0, 10.0, 0.0, 0.0, uint8(0))          // the region's south-west corner
	f.Add(4.0, 4.0, 200.0, 4.0, 4.0, uint8(64))        // its north-east corner
	f.Add(10.0, 0.0, 80.0, 10.0, 0.0, uint8(1))        // a corner of the 10° region
	f.Add(-0.5, 5.0, rimLat, 0.0, 5.0, uint8(1))       // centre outside, rim on the south edge
	// Contains accepts (1.25, lng), a rounding step beyond the latitude of the
	// rim, and a row edge lies between the two.
	f.Add(-1.3278793859136615, 2.1091300205422283, 286.6475051490401, 1.25, 2.1091300205422283, uint8(124))
	f.Add(0.0, 179.9, 100.0, 0.0, -179.95, uint8(2))    // across the antimeridian
	f.Add(89.9, 0.0, 50.0, 89.95, 180.0, uint8(2))      // around the pole
	f.Add(-90.0, -180.0, 1.0, -90.0, -180.0, uint8(2))  // the world's corner
	f.Add(45.0, 90.0, 20000.0, -45.0, -90.0, uint8(66)) // a circle wider than the Earth
	covers := []Rect{
		NewRect(Point{0, 0}, Point{4, 4}),
		NewRect(Point{0, 0}, Point{10, 10}),
		worldRect,
	}
	f.Fuzz(func(t *testing.T, cLat, cLng, radiusKm, pLat, pLng float64, shape uint8) {
		cover := covers[int(shape)%len(covers)]
		rows, cols := 1+int(shape>>2)%64, 1+int(shape)%61
		c, p := Circle{Center: Point{cLat, cLng}, RadiusKm: radiusKm}, Point{pLat, pLng}
		// An ad's target is a valid centre and a positive, finite radius.
		if c.Center.Validate() != nil || !(radiusKm > 0) || math.IsInf(radiusKm, 1) || !cover.Contains(p) {
			return
		}
		g := mustGrid(t, cover, rows, cols)
		id := g.CellOf(p)
		row, col := int16(int(id)/cols), int16(int(id)%cols)
		cell := g.Reach(NewRect(p, p))
		if cell != (Reach{row, row, col, col}) {
			t.Fatalf("reach of %v is %+v, its cell %d is row %d col %d", p, cell, id, row, col)
		}
		if !c.Contains(p) {
			return
		}
		if reach := g.Reach(c.Bounds()); !reach.Holds(cell) {
			t.Fatalf("%+v contains %v (cell %+v) outside its reach %+v", c, p, cell, reach)
		}
		insertCircle(g, 1, c)
		if !registeredAt(g, 1, p) {
			t.Fatalf("%+v contains %v but is not registered in its cell", c, p)
		}
	})
}
