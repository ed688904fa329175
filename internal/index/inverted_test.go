package index

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"caar/internal/adstore"
	"caar/internal/textproc"
)

// randVec draws 1..maxTerms terms over IDs [0, ids) with random weights.
func randVec(rng *rand.Rand, maxTerms, ids int) textproc.SparseVector {
	terms := make([]textproc.Term, 1+rng.Intn(maxTerms))
	for i := range terms {
		terms[i] = textproc.Term{ID: textproc.TermID(rng.Intn(ids)), W: rng.Float64()}
	}
	return textproc.NewVector(terms)
}

// shares reports whether v and w have a term in common.
func shares(v, w textproc.SparseVector) bool {
	for _, t := range v {
		for _, u := range w {
			if t.ID == u.ID {
				return true
			}
		}
	}
	return false
}

func TestInvertedAddRemove(t *testing.T) {
	ix := NewInverted()
	ix.Add(1, textproc.SparseVector{{ID: 10, W: 0.5}, {ID: 20, W: 0.5}})
	ix.Add(2, textproc.SparseVector{{ID: 20, W: 1.0}})
	if len(ix.ads) != 2 || ix.Postings() != 3 {
		t.Fatalf("Len=%d Postings=%d", len(ix.ads), ix.Postings())
	}
	if len(ix.lists[20]) != 2 || len(ix.lists[10]) != 1 || len(ix.lists[99]) != 0 {
		t.Fatal("list lengths wrong")
	}
	ix.Remove(1)
	if len(ix.ads) != 1 || ix.Postings() != 1 {
		t.Fatalf("after remove: Len=%d Postings=%d", len(ix.ads), ix.Postings())
	}
	if len(ix.lists[10]) != 0 {
		t.Fatal("term 10 list should be gone")
	}
	ix.Remove(1) // no-op
	if len(ix.ads) != 1 {
		t.Fatal("double remove changed state")
	}
}

func TestInvertedReAddReplaces(t *testing.T) {
	ix := NewInverted()
	ix.Add(1, textproc.SparseVector{{ID: 10, W: 0.5}})
	ix.Add(1, textproc.SparseVector{{ID: 20, W: 0.7}})
	if len(ix.ads) != 1 || ix.Postings() != 1 {
		t.Fatalf("Len=%d Postings=%d", len(ix.ads), ix.Postings())
	}
	ds := ix.DeltaList(textproc.SparseVector{{ID: 10, W: 1}})
	if len(ds) != 0 {
		t.Fatalf("old terms still indexed: %v", ds)
	}
}

func TestDeltaListExact(t *testing.T) {
	ix := NewInverted()
	s1 := ix.Add(1, textproc.SparseVector{{ID: 10, W: 0.6}, {ID: 20, W: 0.8}})
	s2 := ix.Add(2, textproc.SparseVector{{ID: 20, W: 1.0}})
	ix.Add(3, textproc.SparseVector{{ID: 30, W: 1.0}})
	msg := textproc.SparseVector{{ID: 10, W: 0.5}, {ID: 20, W: 0.5}}
	ds := ix.DeltaList(msg)
	want := []Delta{
		{Slot: s1, Coeff: Pack(0.5*0.6 + 0.5*0.8)},
		{Slot: s2, Coeff: Pack(0.5)},
	}
	if !reflect.DeepEqual(ds, want) {
		t.Fatalf("DeltaList = %v, want %v", ds, want)
	}
	if ds := ix.DeltaList(textproc.SparseVector{{ID: 99, W: 1}}); ds != nil {
		t.Fatalf("unmatched message: %v", ds)
	}
	if ds := ix.DeltaList(textproc.SparseVector{}); ds != nil {
		t.Fatalf("empty message: %v", ds)
	}
}

// TestDeltaListMatchesBruteForce: the delta coefficient must equal the
// sparse dot product for every ad, to the bit, on random ad sets and
// messages. Both add the same rounded products in ascending term order; that
// equality is what lets a delta list patched by a registration (a Dot) and
// one computed later (a DeltaList) agree.
func TestDeltaListMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := NewInverted()
	ads := map[uint32]textproc.SparseVector{} // by slot
	for id := adstore.AdID(1); id <= 150; id++ {
		vec := randVec(rng, 12, 40)
		ads[ix.Add(id, vec)] = vec
	}
	for trial := 0; trial < 100; trial++ {
		msg := randVec(rng, 12, 40)
		got := map[uint32]float64{}
		for _, d := range ix.DeltaList(msg) {
			got[d.Slot] = d.Coeff.Float64()
		}
		for slot, av := range ads {
			want := av.Dot(msg)
			if got[slot] != want {
				t.Fatalf("trial %d slot %d: delta %v, dot %v", trial, slot, got[slot], want)
			}
			if _, present := got[slot]; present != shares(av, msg) {
				t.Fatalf("trial %d slot %d: in delta list %v, shares a term %v", trial, slot, present, !present)
			}
		}
	}
}

// TestDeltaListAscendingWhateverTheRegistrationOrder: DeltaList collects in
// slot order, and a slot is handed out again only once it is released. Two
// indexes get the same ads in different orders — sparse IDs, shuffled, with
// removals, releases and re-adds — so their slots differ; yet each delta list
// is ascending by slot with the exact coefficient of the ad in each slot, the
// two indexes give every ad the same coefficient, and a retired slot is never
// reused before its release. The accumulator is left clean for the next call.
func TestDeltaListAscendingWhateverTheRegistrationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type side struct {
		ix      *Inverted
		at      map[uint32]adstore.AdID // live slot → ad
		retired []uint32
	}
	sides := [2]*side{}
	for i := range sides {
		sides[i] = &side{ix: NewInverted(), at: map[uint32]adstore.AdID{}}
	}
	vecs := map[adstore.AdID]textproc.SparseVector{}
	add := func(s *side, id adstore.AdID) {
		slot := s.ix.Add(id, vecs[id])
		if _, taken := s.at[slot]; taken || slices.Contains(s.retired, slot) {
			t.Fatalf("slot %d handed to ad %d while still live or retired", slot, id)
		}
		s.at[slot] = id
	}
	ids := make([]adstore.AdID, 300)
	for i := range ids {
		ids[i] = adstore.AdID(1000 - 3*i) // sparse IDs
		vecs[ids[i]] = randVec(rng, 6, 30)
	}
	for i, s := range sides {
		order := slices.Clone(ids)
		if i == 1 {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		for _, id := range order {
			add(s, id)
		}
	}
	for round := 0; round < 50; round++ {
		var gone []adstore.AdID // drop a few, then let other IDs in
		for _, id := range sides[0].at {
			if rng.Intn(20) == 0 {
				gone = append(gone, id)
			}
		}
		var fresh []adstore.AdID
		for i := 0; i < 10; i++ {
			id := adstore.AdID(rng.Intn(5000))
			if _, live := vecs[id]; live || slices.Contains(fresh, id) {
				continue
			}
			vecs[id] = randVec(rng, 6, 30)
			fresh = append(fresh, id)
		}
		for i, s := range sides {
			for _, id := range gone {
				slot, ok := s.ix.Remove(id)
				if !ok || s.at[slot] != id {
					t.Fatalf("round %d: removing ad %d gave slot %d (%v), which holds %d", round, id, slot, ok, s.at[slot])
				}
				delete(s.at, slot)
				s.retired = append(s.retired, slot)
			}
			if i == 0 { // one side releases at once, the other a round later
				for _, slot := range s.retired {
					s.ix.Release(slot)
				}
				s.retired = nil
			} else if round%2 == 1 {
				for _, slot := range s.retired {
					s.ix.Release(slot)
				}
				s.retired = nil
			}
			order := slices.Clone(fresh)
			if i == 1 {
				slices.Reverse(order)
			}
			for _, id := range order {
				add(s, id)
			}
		}
		for _, id := range gone {
			delete(vecs, id)
		}
		msg := randVec(rng, 12, 30)
		matched := 0
		for _, av := range vecs {
			if shares(av, msg) {
				matched++
			}
		}
		var coeffs [2]map[adstore.AdID]float64
		for i, s := range sides {
			ds := s.ix.DeltaList(msg)
			if len(ds) != matched {
				t.Fatalf("round %d side %d: %d deltas, %d ads share a term with the message", round, i, len(ds), matched)
			}
			coeffs[i] = map[adstore.AdID]float64{}
			for j, d := range ds {
				if j > 0 && ds[j-1].Slot >= d.Slot {
					t.Fatalf("round %d side %d: not ascending at %d: %v", round, i, j, ds)
				}
				id := s.at[d.Slot]
				if want := vecs[id].Dot(msg); d.Coeff.Float64() != want {
					t.Fatalf("round %d side %d ad %d: delta %v, dot %v", round, i, id, d.Coeff.Float64(), want)
				}
				coeffs[i][id] = d.Coeff.Float64()
			}
		}
		if !maps.Equal(coeffs[0], coeffs[1]) {
			t.Fatalf("round %d: the registration order changed the answer", round)
		}
	}
}

func BenchmarkDeltaList(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ix := NewInverted()
	for id := adstore.AdID(0); id < 10000; id++ {
		ix.Add(id, randVec(rng, 5, 2000))
	}
	msg := randVec(rng, 8, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.DeltaList(msg)
	}
}
