package index

import (
	"math/rand"
	"reflect"
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
	if ix.Len() != 2 || ix.Postings() != 3 {
		t.Fatalf("Len=%d Postings=%d", ix.Len(), ix.Postings())
	}
	if len(ix.lists[20]) != 2 || len(ix.lists[10]) != 1 || len(ix.lists[99]) != 0 {
		t.Fatal("list lengths wrong")
	}
	ix.Remove(1)
	if ix.Len() != 1 || ix.Postings() != 1 {
		t.Fatalf("after remove: Len=%d Postings=%d", ix.Len(), ix.Postings())
	}
	if len(ix.lists[10]) != 0 {
		t.Fatal("term 10 list should be gone")
	}
	ix.Remove(1) // no-op
	if ix.Len() != 1 {
		t.Fatal("double remove changed state")
	}
}

func TestInvertedReAddReplaces(t *testing.T) {
	ix := NewInverted()
	ix.Add(1, textproc.SparseVector{{ID: 10, W: 0.5}})
	ix.Add(1, textproc.SparseVector{{ID: 20, W: 0.7}})
	if ix.Len() != 1 || ix.Postings() != 1 {
		t.Fatalf("Len=%d Postings=%d", ix.Len(), ix.Postings())
	}
	ds := ix.DeltaList(textproc.SparseVector{{ID: 10, W: 1}})
	if len(ds) != 0 {
		t.Fatalf("old terms still indexed: %v", ds)
	}
}

func TestDeltaListExact(t *testing.T) {
	ix := NewInverted()
	ix.Add(1, textproc.SparseVector{{ID: 10, W: 0.6}, {ID: 20, W: 0.8}})
	ix.Add(2, textproc.SparseVector{{ID: 20, W: 1.0}})
	ix.Add(3, textproc.SparseVector{{ID: 30, W: 1.0}})
	msg := textproc.SparseVector{{ID: 10, W: 0.5}, {ID: 20, W: 0.5}}
	ds := ix.DeltaList(msg)
	want := []Delta{
		{Ad: 1, Coeff: 0.5*0.6 + 0.5*0.8},
		{Ad: 2, Coeff: 0.5},
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
	ads := map[adstore.AdID]textproc.SparseVector{}
	for id := adstore.AdID(1); id <= 150; id++ {
		ads[id] = randVec(rng, 12, 40)
		ix.Add(id, ads[id])
	}
	for trial := 0; trial < 100; trial++ {
		msg := randVec(rng, 12, 40)
		got := map[adstore.AdID]float64{}
		for _, d := range ix.DeltaList(msg) {
			got[d.Ad] = d.Coeff
		}
		for id, av := range ads {
			want := av.Dot(msg)
			if got[id] != want {
				t.Fatalf("trial %d ad %d: delta %v, dot %v", trial, id, got[id], want)
			}
			if _, present := got[id]; present != shares(av, msg) {
				t.Fatalf("trial %d ad %d: in delta list %v, shares a term %v", trial, id, present, !present)
			}
		}
	}
}

// TestDeltaListAscendingWhateverTheRegistrationOrder: DeltaList collects in
// accumulator-slot order, which is ad-ID order only when ads arrive in ID
// order and no slot has been reused. Registered shuffled, with removals and
// late re-adds, the result is still exact and ascending, and the accumulator
// is left clean for the next call.
func TestDeltaListAscendingWhateverTheRegistrationOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ix := NewInverted()
	ads := map[adstore.AdID]textproc.SparseVector{}
	add := func(id adstore.AdID) {
		ads[id] = randVec(rng, 6, 30)
		ix.Add(id, ads[id])
	}
	for _, i := range rng.Perm(300) {
		add(adstore.AdID(1000 - 3*i)) // sparse IDs, no order
	}
	for round := 0; round < 50; round++ {
		for id := range ads { // drop a few, then hand their slots to other IDs
			if rng.Intn(20) == 0 {
				ix.Remove(id)
				delete(ads, id)
			}
		}
		for i := 0; i < 10; i++ {
			add(adstore.AdID(rng.Intn(5000)))
		}
		msg := randVec(rng, 12, 30)
		ds := ix.DeltaList(msg)
		matched := 0
		for _, av := range ads {
			if shares(av, msg) {
				matched++
			}
		}
		if len(ds) != matched {
			t.Fatalf("round %d: %d deltas, %d ads share a term with the message", round, len(ds), matched)
		}
		for i, d := range ds {
			if i > 0 && ds[i-1].Ad >= d.Ad {
				t.Fatalf("round %d: not ascending at %d: %v", round, i, ds)
			}
			if want := ads[d.Ad].Dot(msg); d.Coeff != want {
				t.Fatalf("round %d ad %d: delta %v, dot %v", round, d.Ad, d.Coeff, want)
			}
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
