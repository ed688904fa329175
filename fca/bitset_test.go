package fca

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	if b.n != 130 || !b.IsEmpty() || b.Count() != 0 {
		t.Fatal("fresh bitset state wrong")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Test(1) || b.Test(128) {
		t.Fatal("unset bit reads true")
	}
	if b.Test(-1) || b.Test(130) {
		t.Fatal("out-of-range Test should be false")
	}
	if got := b.Elements(); !reflect.DeepEqual(got, []int{0, 64, 129}) {
		t.Fatalf("Elements = %v", got)
	}
	if got := b.String(); got != "{0, 64, 129}" {
		t.Fatalf("String = %q", got)
	}
}

func TestBitSetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set out of range did not panic")
		}
	}()
	b := NewBitSet(10)
	b.Set(10)
}

func TestBitSetFillTrims(t *testing.T) {
	b := NewBitSet(70)
	b.Fill()
	if b.Count() != 70 {
		t.Fatalf("Fill count = %d, want 70", b.Count())
	}
	c := NewBitSet(64)
	c.Fill()
	if c.Count() != 64 {
		t.Fatalf("Fill count = %d, want 64", c.Count())
	}
	z := NewBitSet(0)
	z.Fill()
	if !z.IsEmpty() {
		t.Fatal("empty universe fill should stay empty")
	}
}

func TestBitSetOps(t *testing.T) {
	a := NewBitSet(100)
	b := NewBitSet(100)
	for _, i := range []int{1, 5, 70} {
		a.Set(i)
	}
	for _, i := range []int{5, 70, 99} {
		b.Set(i)
	}
	and := a.Clone()
	and.AndWith(b)
	if got := and.Elements(); !reflect.DeepEqual(got, []int{5, 70}) {
		t.Fatalf("And = %v", got)
	}
	if !and.IsSubsetOf(a) || !and.IsSubsetOf(b) || a.IsSubsetOf(b) {
		t.Fatal("IsSubsetOf wrong")
	}
	if !a.Equal(a.Clone()) || a.Equal(b) {
		t.Fatal("Equal wrong")
	}
	if a.Equal(NewBitSet(50)) {
		t.Fatal("different capacities should not be equal")
	}
}

func TestBitSetCloneIndependence(t *testing.T) {
	a := NewBitSet(10)
	a.Set(3)
	c := a.Clone()
	c.Set(4)
	if a.Test(4) {
		t.Fatal("clone mutation leaked")
	}
}

func TestBitSetSetTestProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		b := NewBitSet(1 << 16)
		seen := map[int]bool{}
		for _, r := range raw {
			b.Set(int(r))
			seen[int(r)] = true
		}
		if b.Count() != len(seen) {
			return false
		}
		for i := range seen {
			if !b.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
