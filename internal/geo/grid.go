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
// the items of each cell in one ascending slice: 4 bytes an item (an ad with
// a wide circle sits in hundreds of cells), membership by binary search.
// Items are uint32 handles, the engine's ad slots. It is the coarse spatial
// pre-filter of the ad pipeline: ads register under the block of cells their
// target circles overlap (Reach), and a user location maps to exactly one
// cell, so eligibility checks touch only the ads registered there. The grid
// keeps no reverse map: the caller, which keeps each item's reach anyway,
// names it again to remove the item.
//
// Grid is not safe for concurrent mutation; the engine guards it with its own
// lock. Reads concurrent with reads are safe.
type Grid struct {
	cover Rect
	rows  int
	cols  int
	cellH float64             // latitude degrees per row
	cellW float64             // longitude degrees per column
	cells map[CellID][]uint32 // ascending
}

// NewGrid creates a grid over cover with the given resolution. rows and cols
// must be positive and fit a Reach; cover must be valid with positive area.
func NewGrid(cover Rect, rows, cols int) (*Grid, error) {
	if rows <= 0 || cols <= 0 || rows > math.MaxInt16 || cols > math.MaxInt16 {
		return nil, fmt.Errorf("geo: grid resolution %dx%d must be positive and at most %d", rows, cols, math.MaxInt16)
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
		cells: make(map[CellID][]uint32),
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

// Reach is a block of grid cells: rows MinRow through MaxRow by columns
// MinCol through MaxCol. One with MaxRow below MinRow holds no cell.
type Reach struct{ MinRow, MaxRow, MinCol, MaxCol int16 }

// Everywhere is the reach that holds every cell of any grid, and every block
// of cells: no grid reaches past the int16 bounds.
var Everywhere = Reach{MinRow: math.MinInt16, MaxRow: math.MaxInt16, MinCol: math.MinInt16, MaxCol: math.MaxInt16}

// Holds reports whether every cell of s, which is not empty, lies in r. It is
// one sign test and no branch: a bound of s outside r makes one of the four
// differences negative.
func (r Reach) Holds(s Reach) bool {
	return (int32(s.MinRow)-int32(r.MinRow))|(int32(r.MaxRow)-int32(s.MaxRow))|
		(int32(s.MinCol)-int32(r.MinCol))|(int32(r.MaxCol)-int32(s.MaxCol)) >= 0
}

// Reach returns the block of cells r overlaps, clipped to the coverage
// rectangle; it is empty when r misses the coverage. The reach of a circle's
// Bounds is the block an ad's circle is inserted under, and holds the
// cell of every covered point the circle contains
// (FuzzGridCoversContainedPoints); the reach of a covered point is its cell.
func (g *Grid) Reach(r Rect) Reach {
	if !r.Intersects(g.cover) {
		return Reach{MinRow: 0, MaxRow: -1, MinCol: 0, MaxCol: -1}
	}
	return Reach{
		MinRow: g.clampRow(math.Floor((r.MinLat - g.cover.MinLat) / g.cellH)),
		MaxRow: g.clampRow(math.Floor((r.MaxLat - g.cover.MinLat) / g.cellH)),
		MinCol: g.clampCol(math.Floor((r.MinLng - g.cover.MinLng) / g.cellW)),
		MaxCol: g.clampCol(math.Floor((r.MaxLng - g.cover.MinLng) / g.cellW)),
	}
}

// Cells returns the IDs of the cells of r, a reach of this grid, row by row.
func (g *Grid) Cells(r Reach) []CellID {
	if r.MaxRow < r.MinRow || r.MaxCol < r.MinCol {
		return nil
	}
	out := make([]CellID, 0, int(r.MaxRow-r.MinRow+1)*int(r.MaxCol-r.MinCol+1))
	for row := int(r.MinRow); row <= int(r.MaxRow); row++ {
		for col := int(r.MinCol); col <= int(r.MaxCol); col++ {
			out = append(out, CellID(row*g.cols+col))
		}
	}
	return out
}

func (g *Grid) clampRow(r float64) int16 { return int16(max(0, min(r, float64(g.rows-1)))) }

func (g *Grid) clampCol(c float64) int16 { return int16(max(0, min(c, float64(g.cols-1)))) }

// Insert registers item in every cell of r, which is one of the grid's
// reaches; a cell that holds it already is left as it is.
func (g *Grid) Insert(item uint32, r Reach) {
	for _, id := range g.Cells(r) {
		cell := g.cells[id]
		if i, found := slices.BinarySearch(cell, item); !found {
			g.cells[id] = slices.Insert(cell, i, item)
		}
	}
}

// Remove deletes item from every cell of r, the reach it was inserted under.
// A cell that does not hold it is left as it is.
func (g *Grid) Remove(item uint32, r Reach) {
	for _, id := range g.Cells(r) {
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
}

// ItemsAt returns the items registered in the cell containing p, ascending.
// The slice is the grid's own: read-only, and valid until the next mutation.
func (g *Grid) ItemsAt(p Point) []uint32 {
	id := g.CellOf(p)
	if id == InvalidCell {
		return nil
	}
	return g.cells[id]
}
