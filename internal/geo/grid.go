package geo

import (
	"fmt"
	"math"
	"slices"
)

// CellID identifies one cell of a uniform Grid. Cells are numbered row-major
// from the south-west corner.
type CellID int32

// InvalidCell is returned for points outside the grid's coverage rectangle.
const InvalidCell CellID = -1

// Grid partitions a coverage rectangle into Rows × Cols equal cells and keeps
// the item IDs of each cell in one ascending slice: 8 bytes an item (an ad
// with a wide circle sits in hundreds of cells), membership by binary search.
// It is the coarse spatial pre-filter of the ad pipeline: ads register the
// cells their target circles overlap, and a user location maps to exactly one
// cell, so eligibility checks touch only the ads registered there.
//
// Grid is not safe for concurrent mutation; the engine guards it with its own
// lock. Reads concurrent with reads are safe.
type Grid struct {
	cover Rect
	rows  int
	cols  int
	cellH float64            // latitude degrees per row
	cellW float64            // longitude degrees per column
	cells map[CellID][]int64 // ascending
	items map[int64][]CellID // reverse map for O(cells) removal
}

// NewGrid creates a grid over cover with the given resolution. rows and cols
// must be positive; cover must be valid with positive area.
func NewGrid(cover Rect, rows, cols int) (*Grid, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("geo: grid resolution %dx%d must be positive", rows, cols)
	}
	if !cover.Valid() {
		return nil, fmt.Errorf("geo: invalid cover rect %+v", cover)
	}
	if cover.MaxLat == cover.MinLat || cover.MaxLng == cover.MinLng {
		return nil, fmt.Errorf("geo: cover rect has zero area: %+v", cover)
	}
	return &Grid{
		cover: cover,
		rows:  rows,
		cols:  cols,
		cellH: (cover.MaxLat - cover.MinLat) / float64(rows),
		cellW: (cover.MaxLng - cover.MinLng) / float64(cols),
		cells: make(map[CellID][]int64),
		items: make(map[int64][]CellID),
	}, nil
}

// CellOf maps a point to its cell, or InvalidCell when p is outside coverage.
func (g *Grid) CellOf(p Point) CellID {
	if !g.cover.Contains(p) {
		return InvalidCell
	}
	row := int((p.Lat - g.cover.MinLat) / g.cellH)
	col := int((p.Lng - g.cover.MinLng) / g.cellW)
	// Points exactly on the max edge belong to the last row/column.
	if row == g.rows {
		row = g.rows - 1
	}
	if col == g.cols {
		col = g.cols - 1
	}
	return CellID(row*g.cols + col)
}

// CellsIntersecting returns the IDs of all cells overlapping r, clipped to the
// coverage rectangle. The result is empty when r misses the coverage entirely.
func (g *Grid) CellsIntersecting(r Rect) []CellID {
	if !r.Intersects(g.cover) {
		return nil
	}
	minRow := g.clampRow(int(math.Floor((r.MinLat - g.cover.MinLat) / g.cellH)))
	maxRow := g.clampRow(int(math.Floor((r.MaxLat - g.cover.MinLat) / g.cellH)))
	minCol := g.clampCol(int(math.Floor((r.MinLng - g.cover.MinLng) / g.cellW)))
	maxCol := g.clampCol(int(math.Floor((r.MaxLng - g.cover.MinLng) / g.cellW)))
	out := make([]CellID, 0, (maxRow-minRow+1)*(maxCol-minCol+1))
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			out = append(out, CellID(row*g.cols+col))
		}
	}
	return out
}

func (g *Grid) clampRow(r int) int {
	if r < 0 {
		return 0
	}
	if r >= g.rows {
		return g.rows - 1
	}
	return r
}

func (g *Grid) clampCol(c int) int {
	if c < 0 {
		return 0
	}
	if c >= g.cols {
		return g.cols - 1
	}
	return c
}

// InsertCircle registers item in every cell its circle's bounding box
// overlaps. Re-inserting an existing item replaces its registration.
func (g *Grid) InsertCircle(item int64, c Circle) {
	g.Remove(item)
	ids := g.CellsIntersecting(c.Bounds())
	if len(ids) == 0 {
		return
	}
	for _, id := range ids {
		cell := g.cells[id]
		if i, found := slices.BinarySearch(cell, item); !found {
			g.cells[id] = slices.Insert(cell, i, item)
		}
	}
	g.items[item] = ids
}

// Remove deletes an item's registration. Removing an unknown item is a no-op.
func (g *Grid) Remove(item int64) {
	ids, ok := g.items[item]
	if !ok {
		return
	}
	for _, id := range ids {
		cell := g.cells[id]
		if i, found := slices.BinarySearch(cell, item); found {
			cell = slices.Delete(cell, i, i+1)
		}
		if len(cell) == 0 {
			delete(g.cells, id)
		} else {
			g.cells[id] = cell
		}
	}
	delete(g.items, item)
}

// ItemsAt returns the items registered in the cell containing p, ascending.
// The slice is the grid's own: read-only, and valid until the next mutation.
func (g *Grid) ItemsAt(p Point) []int64 {
	id := g.CellOf(p)
	if id == InvalidCell {
		return nil
	}
	return g.cells[id]
}
