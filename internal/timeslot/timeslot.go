// Package timeslot models the temporal context dimension: coarse time-of-day
// slots used for ad targeting ("morning commuters", "evening sports fans")
// and exponential time decay used to age feed content.
package timeslot

import (
	"fmt"
	"math"
	"time"
)

// Slot is a coarse time-of-day bucket.
type Slot uint8

// The slot partition follows the evaluation setup: the experiments report
// separate results for the morning window [05:00, 13:00] and the afternoon
// window (13:00, 20:00]; everything else is Night.
const (
	Night     Slot = iota // (20:00, 05:00]
	Morning               // (05:00, 13:00]
	Afternoon             // (13:00, 20:00]
	numSlots
)

// NumSlots is the number of distinct slots.
const NumSlots = int(numSlots)

// String implements fmt.Stringer.
func (s Slot) String() string {
	switch s {
	case Night:
		return "night"
	case Morning:
		return "morning"
	case Afternoon:
		return "afternoon"
	default:
		return fmt.Sprintf("slot(%d)", uint8(s))
	}
}

// Of returns the slot containing t (local time of t).
func Of(t time.Time) Slot {
	h := t.Hour()
	switch {
	case h >= 5 && h < 13:
		return Morning
	case h >= 13 && h < 20:
		return Afternoon
	default:
		return Night
	}
}

// Set is a bitmask of slots, the representation ads use for slot targeting.
// The zero Set matches nothing; use AllSlots to match everything.
type Set uint8

// AllSlots matches every slot.
const AllSlots Set = 1<<numSlots - 1

// NewSet builds a set from individual slots.
func NewSet(slots ...Slot) Set {
	var s Set
	for _, sl := range slots {
		s |= 1 << sl
	}
	return s
}

// Contains reports whether the set includes sl.
func (s Set) Contains(sl Slot) bool { return s&(1<<sl) != 0 }

// Slots expands the set into its member slots in ascending order.
func (s Set) Slots() []Slot {
	var out []Slot
	for sl := Slot(0); sl < numSlots; sl++ {
		if s.Contains(sl) {
			out = append(out, sl)
		}
	}
	return out
}

// String lists the member slots, e.g. "morning|afternoon".
func (s Set) String() string {
	if s == 0 {
		return "none"
	}
	out := ""
	for _, sl := range s.Slots() {
		if out != "" {
			out += "|"
		}
		out += sl.String()
	}
	return out
}

// Decay is an exponential time-decay profile parameterized by half-life:
// weight(age) = 2^(−age/halfLife) = e^(−λ·age) with λ = ln2 / halfLife.
// A zero half-life means no decay (weight 1 forever).
type Decay struct {
	lambda float64 // per-second decay rate; 0 = no decay
}

// NewDecay builds a decay profile. halfLife ≤ 0 disables decay.
func NewDecay(halfLife time.Duration) Decay {
	if halfLife <= 0 {
		return Decay{}
	}
	return Decay{lambda: math.Ln2 / halfLife.Seconds()}
}

// WeightAt returns the decay factor for content aged `age`. Negative ages
// (content "from the future", e.g. clock skew) clamp to weight 1.
func (d Decay) WeightAt(age time.Duration) float64 {
	if d.lambda == 0 || age <= 0 {
		return 1
	}
	return math.Exp(-d.lambda * age.Seconds())
}

// Between returns the factor that converts a weight referenced at time a to
// one referenced at the later time b: weight_b = weight_a × Between(a, b).
// When b precedes a, the factor is > 1 (inverse conversion).
func (d Decay) Between(a, b time.Time) float64 {
	if d.lambda == 0 {
		return 1
	}
	return math.Exp(-d.lambda * b.Sub(a).Seconds())
}

// CheckTime reports whether t can be encoded: the journal and the snapshot
// write times as RFC 3339 (time.Time.MarshalJSON), which holds only years
// 0–9999 and zone offsets under a day. A time that cannot be encoded fails
// every write that carries it — a journal group commit, every later
// snapshot — so it is refused where it enters: at ingest's accept and by
// adstore.NewCampaign.
func CheckTime(t time.Time) error {
	_, offset := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || offset <= -86400 || offset >= 86400 {
		return fmt.Errorf("time %v not encodable: RFC 3339 needs a year in 0-9999 and a zone offset under 24h", t)
	}
	return nil
}
