package fca

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// classicContext is the standard "live in water" teaching example with a
// known concept count.
func classicContext(t *testing.T) *Context {
	t.Helper()
	attrs := []string{"needs-water", "lives-in-water", "lives-on-land", "needs-chlorophyll", "two-seed-leaves", "one-seed-leaf", "can-move", "has-limbs", "suckles"}
	rows := [][]int{ // per object, its attributes' indexes in attrs
		{0, 1, 6},       // leech
		{0, 1, 6, 7},    // bream
		{0, 1, 2, 6, 7}, // frog
		{0, 2, 6, 7, 8}, // dog
		{0, 1, 3, 5},    // spike-weed
		{0, 1, 2, 3, 5}, // reed
		{0, 2, 3, 4},    // bean
		{0, 2, 3, 5},    // maize
	}
	c, err := NewContext([]string{"leech", "bream", "frog", "dog", "spike-weed", "reed", "bean", "maize"}, attrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for _, j := range row {
			c.RelateIdx(i, j)
		}
	}
	return c
}

func TestNewContextValidation(t *testing.T) {
	if _, err := NewContext([]string{"a", "a"}, []string{"x"}); err == nil {
		t.Error("duplicate object accepted")
	}
	if _, err := NewContext([]string{"a"}, []string{"x", "x"}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewContext([]string{"a"}, []string{"x"}); err != nil {
		t.Fatal(err)
	}
}

func TestClassicContextConceptCount(t *testing.T) {
	c := classicContext(t)
	concepts := c.Concepts()
	// The classic example is known to have 19 concepts.
	if len(concepts) != 19 {
		t.Fatalf("concept count = %d, want 19", len(concepts))
	}
	// Every concept must be a fixed point of both derivations.
	for _, cc := range concepts {
		if !c.ObjectsDerive(cc.Extent).Equal(cc.Intent) {
			t.Fatalf("extent′ ≠ intent for %v/%v", cc.Extent, cc.Intent)
		}
		if !c.AttributesDerive(cc.Intent).Equal(cc.Extent) {
			t.Fatalf("intent′ ≠ extent for %v/%v", cc.Extent, cc.Intent)
		}
	}
}

func TestConceptsNoDuplicates(t *testing.T) {
	c := classicContext(t)
	seen := map[string]bool{}
	for _, cc := range c.Concepts() {
		key := cc.Intent.String()
		if seen[key] {
			t.Fatalf("duplicate intent %s", key)
		}
		seen[key] = true
	}
}

// conceptsBrute enumerates concepts by closing every attribute subset —
// exponential, usable only for tiny contexts.
func conceptsBrute(c *Context) []Concept {
	m := len(c.cols)
	seen := map[string]Concept{}
	for mask := 0; mask < 1<<m; mask++ {
		s := NewBitSet(m)
		for j := 0; j < m; j++ {
			if mask&(1<<j) != 0 {
				s.Set(j)
			}
		}
		closed := c.CloseAttributes(s)
		seen[closed.String()] = Concept{Extent: c.AttributesDerive(closed), Intent: closed}
	}
	out := make([]Concept, 0, len(seen))
	for _, cc := range seen {
		out = append(out, cc)
	}
	return out
}

func sortConcepts(cs []Concept) []Concept {
	out := append([]Concept(nil), cs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Intent.String() < out[j].Intent.String() })
	return out
}

func TestNextClosureMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		nObj := 1 + rng.Intn(6)
		nAttr := 1 + rng.Intn(6)
		objs := make([]string, nObj)
		attrs := make([]string, nAttr)
		for i := range objs {
			objs[i] = "o" + string(rune('0'+i))
		}
		for j := range attrs {
			attrs[j] = "a" + string(rune('0'+j))
		}
		c, err := NewContext(objs, attrs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nObj; i++ {
			for j := 0; j < nAttr; j++ {
				if rng.Intn(2) == 0 {
					c.RelateIdx(i, j)
				}
			}
		}
		got := sortConcepts(c.Concepts())
		want := sortConcepts(conceptsBrute(c))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d concepts, brute force %d", trial, len(got), len(want))
		}
		for i := range got {
			if !got[i].Intent.Equal(want[i].Intent) || !got[i].Extent.Equal(want[i].Extent) {
				t.Fatalf("trial %d concept %d mismatch", trial, i)
			}
		}
	}
}

// TestGaloisConnectionProperties checks the defining properties of the
// derivation operators on random contexts: antitone, extensive composition,
// idempotent closure.
func TestGaloisConnectionProperties(t *testing.T) {
	f := func(seed int64, aMask, bMask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := NewContext(
			[]string{"o0", "o1", "o2", "o3", "o4"},
			[]string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"},
		)
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			for j := 0; j < 8; j++ {
				if rng.Intn(3) == 0 {
					c.RelateIdx(i, j)
				}
			}
		}
		mkSet := func(mask uint8) BitSet {
			s := NewBitSet(8)
			for j := 0; j < 8; j++ {
				if mask&(1<<j) != 0 {
					s.Set(j)
				}
			}
			return s
		}
		a, b := mkSet(aMask), mkSet(bMask)

		// Antitone: A ⊆ B ⇒ B′ ⊆ A′.
		ab := a.Clone()
		b.ForEach(ab.Set) // a ⊆ ab = a ∪ b
		if !c.AttributesDerive(ab).IsSubsetOf(c.AttributesDerive(a)) {
			return false
		}
		// Extensive: A ⊆ A″.
		if !a.IsSubsetOf(c.CloseAttributes(a)) {
			return false
		}
		// Idempotent: A″ = (A″)″.
		closed := c.CloseAttributes(a)
		if !c.CloseAttributes(closed).Equal(closed) {
			return false
		}
		// Monotone closure: A ⊆ B ⇒ A″ ⊆ B″ (with B := A∪B).
		if !c.CloseAttributes(a).IsSubsetOf(c.CloseAttributes(ab)) {
			return false
		}
		// Triple derivation: A′ = A‴.
		da := c.AttributesDerive(a)
		if !c.AttributesDerive(c.ObjectsDerive(da)).Equal(da) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExtentIntentNamesSorted(t *testing.T) {
	tc := paperCheckinContext(t)
	for _, cc := range tc.Concepts() {
		for _, names := range [][]string{tc.ExtentNames(cc), tc.IntentNames(cc), tc.ModusNames(cc)} {
			if !sort.StringsAreSorted(names) {
				t.Fatalf("names unsorted: %v", names)
			}
		}
	}
}
