package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"caar/internal/adstore"
	"caar/internal/textproc"
)

func vec(kv map[textproc.TermID]float64) textproc.SparseVector {
	v := textproc.SparseVector{}
	for k, x := range kv {
		v[k] = x
	}
	return v
}

func TestInvertedAddRemove(t *testing.T) {
	ix := NewInverted()
	ix.Add(1, vec(map[textproc.TermID]float64{10: 0.5, 20: 0.5}))
	ix.Add(2, vec(map[textproc.TermID]float64{20: 1.0}))
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
	ix.Add(1, vec(map[textproc.TermID]float64{10: 0.5}))
	ix.Add(1, vec(map[textproc.TermID]float64{20: 0.7}))
	if ix.Len() != 1 || ix.Postings() != 1 {
		t.Fatalf("Len=%d Postings=%d", ix.Len(), ix.Postings())
	}
	ds := ix.DeltaList(vec(map[textproc.TermID]float64{10: 1}))
	if len(ds) != 0 {
		t.Fatalf("old terms still indexed: %v", ds)
	}
}

func TestDeltaListExact(t *testing.T) {
	ix := NewInverted()
	ix.Add(1, vec(map[textproc.TermID]float64{10: 0.6, 20: 0.8}))
	ix.Add(2, vec(map[textproc.TermID]float64{20: 1.0}))
	ix.Add(3, vec(map[textproc.TermID]float64{30: 1.0}))
	msg := vec(map[textproc.TermID]float64{10: 0.5, 20: 0.5})
	ds := ix.DeltaList(msg)
	want := []Delta{
		{Ad: 1, Coeff: 0.5*0.6 + 0.5*0.8},
		{Ad: 2, Coeff: 0.5},
	}
	if !reflect.DeepEqual(ds, want) {
		t.Fatalf("DeltaList = %v, want %v", ds, want)
	}
	if ds := ix.DeltaList(vec(map[textproc.TermID]float64{99: 1})); ds != nil {
		t.Fatalf("unmatched message: %v", ds)
	}
	if ds := ix.DeltaList(textproc.SparseVector{}); ds != nil {
		t.Fatalf("empty message: %v", ds)
	}
}

// TestDeltaListMatchesBruteForce: the delta coefficient must equal the exact
// sparse dot product for every ad, on random ad sets and messages.
func TestDeltaListMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := NewInverted()
	ads := map[adstore.AdID]textproc.SparseVector{}
	for id := adstore.AdID(1); id <= 150; id++ {
		v := textproc.SparseVector{}
		for j := 0; j < 1+rng.Intn(6); j++ {
			v[textproc.TermID(rng.Intn(40))] = rng.Float64()
		}
		ads[id] = v
		ix.Add(id, v)
	}
	for trial := 0; trial < 100; trial++ {
		msg := textproc.SparseVector{}
		for j := 0; j < 1+rng.Intn(8); j++ {
			msg[textproc.TermID(rng.Intn(40))] = rng.Float64()
		}
		got := map[adstore.AdID]float64{}
		for _, d := range ix.DeltaList(msg) {
			got[d.Ad] = d.Coeff
		}
		for id, av := range ads {
			want := av.Dot(msg)
			if math.Abs(got[id]-want) > 1e-9 {
				t.Fatalf("trial %d ad %d: delta %v, dot %v", trial, id, got[id], want)
			}
			if want == 0 {
				if _, present := got[id]; present {
					t.Fatalf("ad %d with zero overlap appears in delta list", id)
				}
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
		v := textproc.SparseVector{}
		for j := 0; j < 1+rng.Intn(6); j++ {
			v[textproc.TermID(rng.Intn(30))] = rng.Float64()
		}
		ads[id] = v
		ix.Add(id, v)
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
		msg := textproc.SparseVector{}
		for j := 0; j < 1+rng.Intn(12); j++ {
			msg[textproc.TermID(rng.Intn(30))] = rng.Float64()
		}
		ds := ix.DeltaList(msg)
		matched := 0
		for _, av := range ads {
			for term := range av {
				if _, shared := msg[term]; shared {
					matched++
					break
				}
			}
		}
		if len(ds) != matched {
			t.Fatalf("round %d: %d deltas, %d ads share a term with the message", round, len(ds), matched)
		}
		for i, d := range ds {
			if i > 0 && ds[i-1].Ad >= d.Ad {
				t.Fatalf("round %d: not ascending at %d: %v", round, i, ds)
			}
			if want := ads[d.Ad].Dot(msg); math.Abs(d.Coeff-want) > 1e-9 {
				t.Fatalf("round %d ad %d: delta %v, dot %v", round, d.Ad, d.Coeff, want)
			}
		}
	}
}

func BenchmarkDeltaList(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ix := NewInverted()
	for id := adstore.AdID(0); id < 10000; id++ {
		v := textproc.SparseVector{}
		for j := 0; j < 5; j++ {
			v[textproc.TermID(rng.Intn(2000))] = rng.Float64()
		}
		ix.Add(id, v)
	}
	msg := textproc.SparseVector{}
	for j := 0; j < 8; j++ {
		msg[textproc.TermID(rng.Intn(2000))] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.DeltaList(msg)
	}
}
