package fca

import "fmt"

// FuzzyTriContext is a triadic context whose incidence carries membership
// degrees in [0, 1] instead of booleans — the representation of
// (user, topic, slot) relations weighted by annotation confidence. Crisp
// analysis is performed on α-cuts.
type FuzzyTriContext struct {
	objects    []string
	attributes []string
	conditions []string
	objIndex   map[string]int
	attrIndex  map[string]int
	condIndex  map[string]int
	deg        map[[3]int]float64
}

// NewFuzzyTriContext creates an empty fuzzy triadic context.
func NewFuzzyTriContext(objects, attributes, conditions []string) (*FuzzyTriContext, error) {
	f := &FuzzyTriContext{
		objects:    append([]string(nil), objects...),
		attributes: append([]string(nil), attributes...),
		conditions: append([]string(nil), conditions...),
		deg:        make(map[[3]int]float64),
	}
	var err error
	if f.objIndex, err = indexNames("object", objects); err != nil {
		return nil, err
	}
	if f.attrIndex, err = indexNames("attribute", attributes); err != nil {
		return nil, err
	}
	if f.condIndex, err = indexNames("condition", conditions); err != nil {
		return nil, err
	}
	return f, nil
}

// Set records a membership degree; degrees outside [0, 1] are rejected.
// Setting an existing triple keeps the maximum of the old and new degree
// (a user who posts about a topic twice is at least as related to it).
func (f *FuzzyTriContext) Set(object, attribute, condition string, degree float64) error {
	if degree < 0 || degree > 1 {
		return fmt.Errorf("fca: degree %v outside [0,1]", degree)
	}
	i, ok := f.objIndex[object]
	if !ok {
		return fmt.Errorf("fca: unknown object %q", object)
	}
	j, ok := f.attrIndex[attribute]
	if !ok {
		return fmt.Errorf("fca: unknown attribute %q", attribute)
	}
	k, ok := f.condIndex[condition]
	if !ok {
		return fmt.Errorf("fca: unknown condition %q", condition)
	}
	key := [3]int{i, j, k}
	if old, exists := f.deg[key]; !exists || degree > old {
		f.deg[key] = degree
	}
	return nil
}

// AlphaCut returns the crisp triadic context containing the triples whose
// degree is strictly greater than alpha (the "> α" convention of the
// evaluation: α = 0 keeps every non-zero triple, α = 1 keeps none).
func (f *FuzzyTriContext) AlphaCut(alpha float64) *TriContext {
	t, err := NewTriContext(f.objects, f.attributes, f.conditions)
	if err != nil {
		// The fuzzy context validated the same name sets at construction.
		panic("fca: alpha-cut reconstruction: " + err.Error())
	}
	for key, d := range f.deg {
		if d > alpha {
			t.RelateIdx(key[0], key[1], key[2])
		}
	}
	return t
}
