package geo

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// worldRect covers the full coordinate domain.
var worldRect = Rect{MinLat: -90, MinLng: -180, MaxLat: 90, MaxLng: 180}

// registeredAt reports whether item is registered in the cell containing p.
func registeredAt(g *Grid, item int64, p Point) bool {
	_, ok := slices.BinarySearch(g.ItemsAt(p), item)
	return ok
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
	// A rect covering cells (2,2)..(4,5) inclusive => 3 rows × 4 cols = 12.
	got := g.CellsIntersecting(NewRect(Point{2.1, 2.1}, Point{4.9, 5.9}))
	if len(got) != 12 {
		t.Fatalf("got %d cells, want 12: %v", len(got), got)
	}
	// Rect entirely off coverage.
	if got := g.CellsIntersecting(NewRect(Point{20, 20}, Point{30, 30})); got != nil {
		t.Fatalf("off-cover rect should yield nil, got %v", got)
	}
	// Rect partially off coverage clips.
	got = g.CellsIntersecting(NewRect(Point{-5, -5}, Point{0.5, 0.5}))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("clipped rect = %v, want [0]", got)
	}
	// World-size rect covers every cell.
	if got := g.CellsIntersecting(worldRect); len(got) != 100 {
		t.Fatalf("world rect covers %d cells, want 100", len(got))
	}
}

func TestGridInsertQueryRemove(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{10, 10}), 10, 10)
	c := Circle{Center: Point{5, 5}, RadiusKm: 1} // tiny: a single cell
	g.InsertCircle(7, c)
	if len(g.items) != 1 {
		t.Fatalf("items = %d, want 1", len(g.items))
	}
	if !registeredAt(g, 7, Point{5, 5}) {
		t.Error("item should be found at circle center")
	}
	if registeredAt(g, 7, Point{9.9, 9.9}) {
		t.Error("item should not be registered far away")
	}
	items := g.ItemsAt(Point{5, 5})
	if len(items) != 1 || items[0] != 7 {
		t.Fatalf("ItemsAt = %v, want [7]", items)
	}
	g.Remove(7)
	if len(g.items) != 0 || registeredAt(g, 7, Point{5, 5}) {
		t.Error("item should be gone after Remove")
	}
	g.Remove(7) // removing twice is a no-op
}

func TestGridReinsertReplaces(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{10, 10}), 10, 10)
	g.InsertCircle(1, Circle{Center: Point{1, 1}, RadiusKm: 1})
	g.InsertCircle(1, Circle{Center: Point{9, 9}, RadiusKm: 1})
	if registeredAt(g, 1, Point{1, 1}) {
		t.Error("old registration should be replaced")
	}
	if !registeredAt(g, 1, Point{9, 9}) {
		t.Error("new registration missing")
	}
	if len(g.items) != 1 {
		t.Fatalf("items = %d, want 1", len(g.items))
	}
}

// TestGridCellsStaySortedSets: a cell is an ascending slice with no item
// twice, whatever order items arrive, leave and come back in.
func TestGridCellsStaySortedSets(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{10, 10}), 10, 10)
	at := Point{5, 5}
	c := Circle{Center: at, RadiusKm: 1}
	want := func(ids ...int64) {
		t.Helper()
		got := g.ItemsAt(at)
		if !slices.Equal(got, ids) {
			t.Fatalf("ItemsAt = %v, want %v", got, ids)
		}
		for _, id := range []int64{1, 3, 5, 7, 9} {
			if registeredAt(g, id, at) != slices.Contains(ids, id) {
				t.Fatalf("registeredAt(%d) = %v with cell %v", id, registeredAt(g, id, at), got)
			}
		}
	}
	for _, id := range []int64{7, 3, 9, 5} { // not ascending
		g.InsertCircle(id, c)
	}
	want(3, 5, 7, 9)
	g.InsertCircle(5, c) // the same registration twice
	g.InsertCircle(5, c)
	want(3, 5, 7, 9)
	if len(g.items) != 4 {
		t.Fatalf("items = %d after duplicate inserts, want 4", len(g.items))
	}
	g.Remove(3) // first, middle-after-shift, then put back
	want(5, 7, 9)
	g.Remove(7)
	want(5, 9)
	g.InsertCircle(7, c)
	g.InsertCircle(3, c)
	g.InsertCircle(1, c)
	want(1, 3, 5, 7, 9)
	for _, id := range []int64{9, 1, 5, 3, 7} {
		g.Remove(id)
	}
	want()
	if len(g.items) != 0 || len(g.cells) != 0 {
		t.Fatalf("items = %d with %d cells held after every item left", len(g.items), len(g.cells))
	}
	g.InsertCircle(5, c) // an emptied cell takes items again
	want(5)
}

func TestGridInsertOutsideCoverage(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{10, 10}), 10, 10)
	g.InsertCircle(5, Circle{Center: Point{80, 80}, RadiusKm: 10})
	if len(g.items) != 0 {
		t.Fatalf("circle outside coverage should not register, items=%d", len(g.items))
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
		id int64
		c  Circle
	}
	var entries []entry
	for i := 0; i < 200; i++ {
		c := Circle{
			Center:   Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10},
			RadiusKm: rng.Float64() * 120,
		}
		g.InsertCircle(int64(i), c)
		entries = append(entries, entry{int64(i), c})
	}
	for q := 0; q < 500; q++ {
		p := Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10}
		cellItems := map[int64]bool{}
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
