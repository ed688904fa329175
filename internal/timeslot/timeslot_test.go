package timeslot

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func at(hour int) time.Time {
	return time.Date(2026, 7, 6, hour, 30, 0, 0, time.UTC)
}

func TestOf(t *testing.T) {
	tests := []struct {
		hour int
		want Slot
	}{
		{0, Night}, {4, Night}, {5, Morning}, {8, Morning}, {12, Morning},
		{13, Afternoon}, {16, Afternoon}, {19, Afternoon}, {20, Night},
		{23, Night},
	}
	for _, tt := range tests {
		if got := Of(at(tt.hour)); got != tt.want {
			t.Errorf("Of(%02d:30) = %v, want %v", tt.hour, got, tt.want)
		}
	}
}

func TestSlotString(t *testing.T) {
	if Night.String() != "night" || Morning.String() != "morning" || Afternoon.String() != "afternoon" {
		t.Error("slot strings wrong")
	}
	if Slot(7).String() != "slot(7)" {
		t.Errorf("out-of-range slot string = %q", Slot(7).String())
	}
}

func TestSet(t *testing.T) {
	s := NewSet(Morning, Afternoon)
	if !s.Contains(Morning) || !s.Contains(Afternoon) || s.Contains(Night) {
		t.Fatalf("set membership wrong: %v", s)
	}
	if got := s.String(); got != "morning|afternoon" {
		t.Fatalf("String = %q", got)
	}
	if Set(0).String() != "none" {
		t.Error("empty set string")
	}
	if !AllSlots.Contains(Night) || !AllSlots.Contains(Morning) || !AllSlots.Contains(Afternoon) {
		t.Error("AllSlots incomplete")
	}
	slots := s.Slots()
	if len(slots) != 2 || slots[0] != Morning || slots[1] != Afternoon {
		t.Fatalf("Slots = %v", slots)
	}
}

func TestDecayDisabled(t *testing.T) {
	d := NewDecay(0)
	if d.WeightAt(time.Hour) != 1 {
		t.Fatal("disabled decay must weight 1")
	}
	if d.Between(at(1), at(10)) != 1 {
		t.Fatal("disabled Between must be 1")
	}
}

func TestDecayHalfLife(t *testing.T) {
	d := NewDecay(time.Hour)
	if got := d.WeightAt(time.Hour); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("weight at one half-life = %v, want 0.5", got)
	}
	if got := d.WeightAt(2 * time.Hour); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("weight at two half-lives = %v, want 0.25", got)
	}
	if got := d.WeightAt(0); got != 1 {
		t.Fatalf("weight at age 0 = %v", got)
	}
	if got := d.WeightAt(-time.Minute); got != 1 {
		t.Fatalf("negative age should clamp to 1, got %v", got)
	}
}

func TestDecayBetweenComposes(t *testing.T) {
	d := NewDecay(30 * time.Minute)
	a, b, c := at(1), at(2), at(3)
	lhs := d.Between(a, c)
	rhs := d.Between(a, b) * d.Between(b, c)
	if math.Abs(lhs-rhs) > 1e-12 {
		t.Fatalf("Between does not compose: %v vs %v", lhs, rhs)
	}
	// Inverse direction is reciprocal.
	if math.Abs(d.Between(a, b)*d.Between(b, a)-1) > 1e-12 {
		t.Fatal("Between(a,b)·Between(b,a) ≠ 1")
	}
}

// TestDecayEpochEquivalenceProperty verifies the algebraic identity the CAP
// engine's epoch-rescaling trick relies on: a weight recorded at reference
// time r and converted to query time q equals the direct decay of the
// content's age.
func TestDecayEpochEquivalenceProperty(t *testing.T) {
	base := at(6)
	f := func(postOffsetSec, refOffsetSec, queryOffsetSec uint16) bool {
		d := NewDecay(45 * time.Minute)
		post := base.Add(time.Duration(postOffsetSec) * time.Second)
		ref := post.Add(time.Duration(refOffsetSec) * time.Second)
		query := ref.Add(time.Duration(queryOffsetSec) * time.Second)
		// direct: decay from post to query
		direct := d.WeightAt(query.Sub(post))
		// staged: record at ref, convert ref→query
		staged := d.WeightAt(ref.Sub(post)) * d.Between(ref, query)
		return math.Abs(direct-staged) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
