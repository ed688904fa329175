package fca

import "fmt"

// Context is a dyadic formal context (G, M, I): a set of objects G, a set of
// attributes M, and an incidence relation I ⊆ G×M, over dense indexes. TRIAS
// enumerates the triadic concepts through its dyadic projections.
type Context struct {
	rows []BitSet // per object: its attributes
	cols []BitSet // per attribute: its objects
}

// NewContext creates an empty context over the given object and attribute
// names. Names must be unique within their kind.
func NewContext(objects, attributes []string) (*Context, error) {
	if _, err := indexNames("object", objects); err != nil {
		return nil, err
	}
	if _, err := indexNames("attribute", attributes); err != nil {
		return nil, err
	}
	c := &Context{rows: make([]BitSet, len(objects))}
	for i := range c.rows {
		c.rows[i] = NewBitSet(len(attributes))
	}
	c.cols = make([]BitSet, len(attributes))
	for j := range c.cols {
		c.cols[j] = NewBitSet(len(objects))
	}
	return c, nil
}

// indexNames maps each name to its position, rejecting a duplicate.
func indexNames(kind string, names []string) (map[string]int, error) {
	index := make(map[string]int, len(names))
	for i, n := range names {
		if _, dup := index[n]; dup {
			return nil, fmt.Errorf("fca: duplicate %s %q", kind, n)
		}
		index[n] = i
	}
	return index, nil
}

// RelateIdx adds (object i, attribute j) by index.
func (c *Context) RelateIdx(i, j int) {
	c.rows[i].Set(j)
	c.cols[j].Set(i)
}

// ObjectsDerive returns the attributes common to all objects in ext (the ′
// operator on object sets). For the empty set it returns all attributes.
func (c *Context) ObjectsDerive(ext BitSet) BitSet {
	out := NewBitSet(len(c.cols))
	out.Fill()
	ext.ForEach(func(i int) { out.AndWith(c.rows[i]) })
	return out
}

// AttributesDerive returns the objects possessing all attributes in int
// (the ′ operator on attribute sets). For the empty set it returns all
// objects.
func (c *Context) AttributesDerive(intent BitSet) BitSet {
	out := NewBitSet(len(c.rows))
	out.Fill()
	intent.ForEach(func(j int) { out.AndWith(c.cols[j]) })
	return out
}

// CloseAttributes returns the closure A″ of an attribute set.
func (c *Context) CloseAttributes(intent BitSet) BitSet {
	return c.ObjectsDerive(c.AttributesDerive(intent))
}

// Concept is a formal concept: a maximal rectangle (Extent × Intent) ⊆ I
// with Extent′ = Intent and Intent′ = Extent.
type Concept struct {
	Extent BitSet // objects
	Intent BitSet // attributes
}

// Concepts enumerates every formal concept of the context using Ganter's
// NextClosure algorithm, in lectic order of intents. The number of concepts
// can be exponential in the context size; callers working with adversarial
// inputs should bound their contexts.
func (c *Context) Concepts() []Concept {
	m := len(c.cols)
	var out []Concept

	intent := c.CloseAttributes(NewBitSet(m))
	for {
		out = append(out, Concept{Extent: c.AttributesDerive(intent), Intent: intent.Clone()})
		next, ok := c.nextClosure(intent)
		if !ok {
			return out
		}
		intent = next
	}
}

// nextClosure computes the lectically next closed attribute set after the
// given closed set, or ok=false when it was the last one (the full set).
func (c *Context) nextClosure(a BitSet) (BitSet, bool) {
	m := len(c.cols)
	for i := m - 1; i >= 0; i-- {
		if a.Test(i) {
			continue
		}
		// candidate = closure((a ∩ {0..i−1}) ∪ {i})
		cand := NewBitSet(m)
		for j := 0; j < i; j++ {
			if a.Test(j) {
				cand.Set(j)
			}
		}
		cand.Set(i)
		closed := c.CloseAttributes(cand)
		// Accept if no new element below i was introduced.
		ok := true
		for j := 0; j < i; j++ {
			if closed.Test(j) && !cand.Test(j) {
				ok = false
				break
			}
		}
		if ok {
			return closed, true
		}
	}
	return BitSet{}, false
}
