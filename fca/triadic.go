package fca

import (
	"fmt"
	"sort"
)

// TriContext is a triadic formal context (G, M, B, Y): objects, attributes,
// conditions, and a ternary incidence Y ⊆ G×M×B. In the recommender's two
// instantiations: (users, locations, time slots, check-ins) and
// (users, topic URIs, time slots, posts-about).
type TriContext struct {
	objects    []string
	attributes []string
	conditions []string
	objIndex   map[string]int
	attrIndex  map[string]int
	condIndex  map[string]int
	// inc[g] is a bitset over the flattened M×B pairs: index j*|B|+k.
	inc []BitSet
}

// NewTriContext creates an empty triadic context. Names must be unique
// within each dimension.
func NewTriContext(objects, attributes, conditions []string) (*TriContext, error) {
	t := &TriContext{
		objects:    append([]string(nil), objects...),
		attributes: append([]string(nil), attributes...),
		conditions: append([]string(nil), conditions...),
	}
	var err error
	if t.objIndex, err = indexNames("object", objects); err != nil {
		return nil, err
	}
	if t.attrIndex, err = indexNames("attribute", attributes); err != nil {
		return nil, err
	}
	if t.condIndex, err = indexNames("condition", conditions); err != nil {
		return nil, err
	}
	t.inc = make([]BitSet, len(objects))
	for i := range t.inc {
		t.inc[i] = NewBitSet(len(attributes) * len(conditions))
	}
	return t, nil
}

// Relate adds (object, attribute, condition) to Y by name.
func (t *TriContext) Relate(object, attribute, condition string) error {
	i, ok := t.objIndex[object]
	if !ok {
		return fmt.Errorf("fca: unknown object %q", object)
	}
	j, ok := t.attrIndex[attribute]
	if !ok {
		return fmt.Errorf("fca: unknown attribute %q", attribute)
	}
	k, ok := t.condIndex[condition]
	if !ok {
		return fmt.Errorf("fca: unknown condition %q", condition)
	}
	t.RelateIdx(i, j, k)
	return nil
}

// RelateIdx adds (i, j, k) to Y by index.
func (t *TriContext) RelateIdx(i, j, k int) {
	t.inc[i].Set(j*len(t.conditions) + k)
}

// TriConcept is a triadic concept (A1, A2, A3): a maximal box
// A1×A2×A3 ⊆ Y — no dimension can be enlarged without breaking inclusion
// (Wille's triadic concepts).
type TriConcept struct {
	Extent BitSet // A1 ⊆ G
	Intent BitSet // A2 ⊆ M
	Modus  BitSet // A3 ⊆ B
}

// ExtentNames resolves A1 to object names.
func (t *TriContext) ExtentNames(c TriConcept) []string { return names(t.objects, c.Extent) }

// IntentNames resolves A2 to attribute names.
func (t *TriContext) IntentNames(c TriConcept) []string { return names(t.attributes, c.Intent) }

// ModusNames resolves A3 to condition names.
func (t *TriContext) ModusNames(c TriConcept) []string { return names(t.conditions, c.Modus) }

func names(all []string, s BitSet) []string {
	out := make([]string, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, all[i]) })
	sort.Strings(out)
	return out
}

// boxExtent returns the objects g with {g}×A2×A3 ⊆ Y.
func (t *TriContext) boxExtent(intent, modus BitSet) BitSet {
	mask := NewBitSet(len(t.attributes) * len(t.conditions))
	intent.ForEach(func(j int) {
		modus.ForEach(func(k int) {
			mask.Set(j*len(t.conditions) + k)
		})
	})
	ext := NewBitSet(len(t.objects))
	for i := range t.inc {
		if mask.IsSubsetOf(t.inc[i]) {
			ext.Set(i)
		}
	}
	return ext
}

// Concepts enumerates all triadic concepts using the TRIAS scheme
// (Jäschke et al.): enumerate the concepts (A1, I) of the projected dyadic
// context (G, M×B, Y¹); for each, enumerate the dyadic concepts (A2, A3) of
// the slice context I ⊆ M×B; keep (A1, A2, A3) when A1 is exactly the box
// extent of A2×A3, which guarantees maximality in all three dimensions and
// emits every triadic concept exactly once.
func (t *TriContext) Concepts() []TriConcept {
	nm, nb := len(t.attributes), len(t.conditions)

	// Projected dyadic context K1 = (G, M×B, Y¹).
	k1 := &Context{rows: t.inc, cols: make([]BitSet, nm*nb)}
	for p := 0; p < nm*nb; p++ {
		col := NewBitSet(len(t.objects))
		for i := range t.inc {
			if t.inc[i].Test(p) {
				col.Set(i)
			}
		}
		k1.cols[p] = col
	}

	var out []TriConcept
	seen := map[string]bool{}
	for _, c1 := range k1.Concepts() {
		// Slice context: attributes M, objects... we want dyadic concepts
		// of the relation I ⊆ M×B with M as objects and B as attributes.
		slice, err := NewContext(t.attributes, t.conditions)
		if err != nil {
			panic("fca: internal slice context: " + err.Error())
		}
		c1.Intent.ForEach(func(p int) {
			slice.RelateIdx(p/nb, p%nb)
		})
		for _, c2 := range slice.Concepts() {
			a2, a3 := c2.Extent, c2.Intent
			a1 := t.boxExtent(a2, a3)
			if !a1.Equal(c1.Extent) {
				continue
			}
			key := a2.String() + "|" + a3.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, TriConcept{Extent: a1, Intent: a2.Clone(), Modus: a3.Clone()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Extent.Count(), out[j].Extent.Count()
		if ci != cj {
			return ci > cj
		}
		return out[i].Intent.String()+out[i].Modus.String() <
			out[j].Intent.String()+out[j].Modus.String()
	})
	return out
}

// MTriadicConcepts returns the triadic concepts whose attribute set (A2) is
// exactly the single attribute m — the "m-triadic concepts" of Hao et al.
// that form the skeleton of location-focused communities. ok is false for an
// unknown attribute name.
func (t *TriContext) MTriadicConcepts(m string) ([]TriConcept, bool) {
	j, known := t.attrIndex[m]
	if !known {
		return nil, false
	}
	var out []TriConcept
	for _, c := range t.Concepts() {
		if c.Intent.Count() == 1 && c.Intent.Test(j) {
			out = append(out, c)
		}
	}
	return out, true
}
