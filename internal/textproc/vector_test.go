package textproc

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// norm is ‖v‖₂.
func norm(v SparseVector) float64 { return math.Sqrt(v.Dot(v)) }

// weight is v's weight for id, 0 when v lacks the term.
func weight(v SparseVector, id TermID) float64 {
	i, ok := slices.BinarySearchFunc(v, id, func(t Term, id TermID) int { return cmp.Compare(t.ID, id) })
	if !ok {
		return 0
	}
	return v[i].W
}

func TestDot(t *testing.T) {
	v := SparseVector{{1, 1}, {2, 2}}
	w := SparseVector{{2, 3}, {3, 4}}
	if got := v.Dot(w); got != 6 {
		t.Fatalf("Dot = %v, want 6", got)
	}
	if got := w.Dot(v); got != 6 {
		t.Fatalf("Dot not symmetric: %v", got)
	}
	if got := (SparseVector{{1, 1}}).Dot(SparseVector{{2, 1}}); got != 0 {
		t.Fatalf("orthogonal Dot = %v, want 0", got)
	}
	if got := (SparseVector{}).Dot(v); got != 0 {
		t.Fatalf("empty Dot = %v, want 0", got)
	}
}

func TestNewVectorSortsAndFolds(t *testing.T) {
	got := NewVector([]Term{{3, 1}, {1, .5}, {3, 2}, {2, 1}, {1, .25}})
	if want := (SparseVector{{1, .75}, {2, 1}, {3, 3}}); !slices.Equal(got, want) {
		t.Fatalf("NewVector = %v, want %v", got, want)
	}
	if got := NewVector(nil); len(got) != 0 {
		t.Fatalf("NewVector(nil) = %v", got)
	}
}

func TestL2Normalize(t *testing.T) {
	one := func(TermID) float64 { return 1 }
	v := Bag([]TermID{2, 1, 2, 1, 2, 1, 2}, one) // counts 3 and 4
	if len(v) != 2 || !almostEqual(weight(v, 1), 0.6) || !almostEqual(weight(v, 2), 0.8) {
		t.Fatalf("Bag = %v, want {1:0.6 2:0.8}", v)
	}
	idf := func(id TermID) float64 { return float64(id) }
	if v := Bag([]TermID{1, 2}, idf); !almostEqual(norm(v), 1) || !almostEqual(weight(v, 2)/weight(v, 1), 2) {
		t.Fatalf("weighted Bag = %v, want unit norm and ratio 2", v)
	}
	if v := Bag(nil, one); len(v) != 0 {
		t.Fatalf("empty Bag = %v", v)
	}
}

// randomVec draws 3–12 terms over 16 IDs with random weights.
func randomVec(rng *rand.Rand) SparseVector {
	terms := make([]Term, 3+rng.Intn(10))
	for i := range terms {
		terms[i] = Term{ID: TermID(rng.Intn(16)), W: rng.Float64()}
	}
	return NewVector(terms)
}

// TestBagOfPermutedIDsIsIdentical builds each bag twice, the second time
// shuffled: the vectors must be equal to the bit, because the build sorts
// before it sums anything.
func TestBagOfPermutedIDsIsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idf := func(id TermID) float64 { return 1 + float64(id%7)/3 }
	for range 1000 {
		ids := make([]TermID, 3+rng.Intn(20))
		for i := range ids {
			ids[i] = TermID(rng.Intn(16))
		}
		want := Bag(ids, idf)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		if got := Bag(ids, idf); !slices.Equal(got, want) {
			t.Fatalf("Bag(%v) = %v, want %v", ids, got, want)
		}
	}
}

// TestDotIsBitIdenticalInBothOrders: ⟨v, w⟩ and ⟨w, v⟩ add the same products
// in the same order, so they are the same float, on every call.
func TestDotIsBitIdenticalInBothOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for range 1000 {
		v, w := randomVec(rng), randomVec(rng)
		want := math.Float64bits(v.Dot(w))
		for range 5 {
			if a, b := math.Float64bits(v.Dot(w)), math.Float64bits(w.Dot(v)); a != want || b != want {
				t.Fatalf("⟨%v, %v⟩: bits %x and %x, want %x", v, w, a, b, want)
			}
		}
	}
}

// quickVec converts testing/quick raw input into a small sparse vector.
func quickVec(raw map[uint8]float64) SparseVector {
	var terms []Term
	for k, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		// keep weights bounded so dot products stay finite
		terms = append(terms, Term{ID: TermID(k), W: math.Mod(x, 100)})
	}
	return NewVector(terms)
}

func TestDotLinearityProperty(t *testing.T) {
	f := func(a, b, c map[uint8]float64) bool {
		u, v, w := quickVec(a), quickVec(b), quickVec(c)
		// ⟨u+v, w⟩ == ⟨u,w⟩ + ⟨v,w⟩
		lhs := NewVector(append(slices.Clone(u), v...)).Dot(w)
		rhs := u.Dot(w) + v.Dot(w)
		return math.Abs(lhs-rhs) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
