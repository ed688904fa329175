package textproc

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDot(t *testing.T) {
	v := SparseVector{1: 1, 2: 2}
	w := SparseVector{2: 3, 3: 4}
	if got := v.Dot(w); !almostEqual(got, 6) {
		t.Fatalf("Dot = %v, want 6", got)
	}
	if got := w.Dot(v); !almostEqual(got, 6) {
		t.Fatalf("Dot not symmetric: %v", got)
	}
	if got := (SparseVector{1: 1}).Dot(SparseVector{2: 1}); got != 0 {
		t.Fatalf("orthogonal Dot = %v, want 0", got)
	}
	if got := (SparseVector{}).Dot(v); got != 0 {
		t.Fatalf("empty Dot = %v, want 0", got)
	}
}

func TestAddSubScaled(t *testing.T) {
	v := SparseVector{1: 1}
	v.AddScaled(SparseVector{1: 2, 2: 3}, 0.5)
	want := SparseVector{1: 2, 2: 1.5}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("AddScaled = %v, want %v", v, want)
	}
	v.AddScaled(SparseVector{1: 2, 2: 3}, -0.5)
	if !almostEqual(v[1], 1) || !almostEqual(v[2], 0) {
		t.Fatalf("AddScaled with a negative scale = %v, want {1:1 2:0}", v)
	}
}

func TestL2Normalize(t *testing.T) {
	v := SparseVector{1: 3, 2: 4}
	v.L2Normalize()
	if !almostEqual(v.Norm(), 1) {
		t.Fatalf("norm after normalize = %v", v.Norm())
	}
	if !almostEqual(v[1], 0.6) || !almostEqual(v[2], 0.8) {
		t.Fatalf("normalized = %v", v)
	}
	empty := SparseVector{}
	empty.L2Normalize() // must not panic or corrupt
	if len(empty) != 0 {
		t.Fatal("empty vector changed")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := SparseVector{1: 1}
	c := v.Clone()
	c[1] = 99
	c[2] = 5
	if v[1] != 1 || len(v) != 1 {
		t.Fatalf("clone mutation leaked into original: %v", v)
	}
}

// quickVec converts testing/quick raw input into a small sparse vector.
func quickVec(raw map[uint8]float64) SparseVector {
	v := SparseVector{}
	for k, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		// keep weights bounded so dot products stay finite
		v[TermID(k)] = math.Mod(x, 100)
	}
	return v
}

func TestDotLinearityProperty(t *testing.T) {
	f := func(a, b, c map[uint8]float64) bool {
		u, v, w := quickVec(a), quickVec(b), quickVec(c)
		// ⟨u+v, w⟩ == ⟨u,w⟩ + ⟨v,w⟩
		sum := u.Clone()
		sum.AddScaled(v, 1)
		lhs := sum.Dot(w)
		rhs := u.Dot(w) + v.Dot(w)
		return math.Abs(lhs-rhs) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(a, b map[uint8]float64) bool {
		v, w := quickVec(a), quickVec(b)
		orig := v.Clone()
		v.AddScaled(w, 0.7)
		v.AddScaled(w, -0.7)
		// After round trip every original entry is back (within float noise)
		for id, x := range orig {
			if math.Abs(v[id]-x) > 1e-6 {
				return false
			}
		}
		for id, x := range v {
			if math.Abs(orig[id]-x) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
