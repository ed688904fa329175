// Package fields: which struct fields count as referenced.
package fields

type T struct {
	Nobody  int // reported: nothing references it
	tested  int // reported: its one reader is a _test.go
	written int // a keyed literal writes it, nothing reads it
	Inner       // used only through the field promoted from it
}

type Inner struct{ Depth int }

// Wire's fields carry json tags: encoding/json reads the exported ones.
type Wire struct {
	Count int `json:"count"`
}

func New() T { return T{written: 1} }

func Depth(t T) int { return t.Depth }
