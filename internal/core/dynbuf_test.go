package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/index"
	"caar/internal/textproc"
)

// bufModel is the reference dynBuf: the map it replaced, with the same
// arithmetic in the same order, so stored values must agree bit for bit.
type bufModel struct {
	u     map[adstore.AdID]float64
	scale float64
}

func (m *bufModel) set(ad adstore.AdID, nv float64) {
	if math.Abs(nv*m.scale) < dropBelow {
		delete(m.u, ad)
		return
	}
	m.u[ad] = nv
}

func (m *bufModel) age(factor float64) {
	m.scale *= factor
	if m.scale >= 1e-150 {
		return
	}
	for ad, v := range m.u {
		if m.scale > 0 {
			m.u[ad] = v * m.scale
		} else {
			delete(m.u, ad)
		}
	}
	m.scale = 1
}

// runDynBufModel decodes data into a sequence of merges (of zero to three
// evictions and zero to three arrivals in one pass, as a catch-up makes them),
// agings, single sets and removes, applies each to a dynBuf and to the map
// model, and compares them after every step.
func runDynBufModel(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// Coefficients are quarters and factors powers of two (or far out of
	// range), so sums cancel to exactly zero often and 1e-12 residues occur.
	coeff := func() float64 { return float64(next()%9-4) / 4 }
	factors := []float64{1, -1, 0.5, -0.5, 1e-13, 3}
	ages := []float64{1, 0.5, 0.25, 1e-80, 5e-324, 0}
	list := func() weighted {
		var out []index.Delta
		ad := adstore.AdID(0)
		for n := next() % 6; n > 0; n-- {
			ad += adstore.AdID(1 + next()%5)
			out = append(out, index.Delta{Ad: ad, Coeff: coeff()})
		}
		return weighted{d: out, c: factors[next()%len(factors)]}
	}

	b := newDynBuf()
	m := &bufModel{u: map[adstore.AdID]float64{}, scale: 1}
	var scratch []bufEntry
	for step := 0; len(data) > 0; step++ {
		switch next() % 4 {
		case 0:
			evictions, n := next()%4, next()%4
			var lists []weighted
			for n += evictions; n > 0; n-- {
				lists = append(lists, list())
			}
			noteAt := []float64{math.Inf(1), 0.5, -1}[next()%3]
			// The view comes in empty, one short of full, or full: the noted
			// list holds viewMaxNoted ads and the next one drops the view.
			wantNoted := make([]adstore.AdID, []int{0, viewMaxNoted - 1, viewMaxNoted}[next()%3])
			view := &topView{noted: slices.Clone(wantNoted)}
			b.view = view
			scratch = b.merge(scratch, slices.Clone(lists), evictions, noteAt)

			// The model adds in the order merge does: list after list.
			touched := map[adstore.AdID]float64{}
			var raised []adstore.AdID
			for l, w := range lists {
				for _, d := range w.d {
					v, ok := touched[d.Ad]
					if !ok {
						v = m.u[d.Ad]
					}
					touched[d.Ad] = v + w.c*d.Coeff
					if l >= evictions && !slices.Contains(raised, d.Ad) {
						raised = append(raised, d.Ad)
					}
				}
			}
			for ad, v := range touched {
				m.set(ad, v)
			}
			slices.Sort(raised)
			for _, ad := range raised {
				if v, kept := m.u[ad]; kept && v >= noteAt {
					wantNoted = append(wantNoted, ad)
				}
			}
			if len(wantNoted) > viewMaxNoted {
				if b.view != nil {
					t.Fatalf("step %d: view kept with %d ads to note, limit %d", step, len(wantNoted), viewMaxNoted)
				}
			} else if b.view != view || !slices.Equal(view.noted, wantNoted) {
				t.Fatalf("step %d: noted %v, want %v (noteAt %v, view kept %v)", step, view.noted, wantNoted, noteAt, b.view == view)
			}
		case 1:
			f := ages[next()%len(ages)]
			b.age(f)
			m.age(f)
		case 2:
			ad := adstore.AdID(next() % 32)
			b.remove(ad)
			delete(m.u, ad)
		case 3:
			ad, c := adstore.AdID(next()%32), coeff()
			b.set(ad, c)
			m.set(ad, c/m.scale)
		}

		if b.scale != m.scale {
			t.Fatalf("step %d: scale %v, model %v", step, b.scale, m.scale)
		}
		if len(b.e) != len(m.u) {
			t.Fatalf("step %d: %d entries, model %d\n%v\n%v", step, len(b.e), len(m.u), b.e, m.u)
		}
		for i, en := range b.e {
			if i > 0 && b.e[i-1].ad >= en.ad {
				t.Fatalf("step %d: entries out of order at %d: %v", step, i, b.e)
			}
			if want, ok := m.u[en.ad]; !ok || want != en.v {
				t.Fatalf("step %d: ad %d = %v, model %v (present %v)", step, en.ad, en.v, want, ok)
			}
			if got := b.get(en.ad); got != en.v {
				t.Fatalf("step %d: get(%d) = %v, entry holds %v", step, en.ad, got, en.v)
			}
		}
	}
}

func TestDynBufMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 50+rng.Intn(400))
		rng.Read(data)
		runDynBufModel(t, data)
	}
}

func FuzzDynBufMerge(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 1, 5, 2, 6, 1, 1, 1, 7, 0, 0, 0}) // one eviction and one arrival that share ad 2
	f.Add([]byte{3, 4, 8, 0, 1, 0, 1, 3, 8, 1, 0, 0})          // set ad 4 to 1.0, merge it back to zero
	f.Add([]byte{3, 7, 8, 1, 3, 1, 3, 3, 7, 5, 1, 4})          // 1e-80 twice: renormalised; then 5e-324
	f.Add([]byte{3, 9, 6, 1, 5, 3, 9, 6, 2, 9, 2, 9})          // flush to zero, set, remove twice
	// Three evictions and three arrivals in one pass, ad 2 in five of the lists.
	f.Add([]byte{0, 3, 3, 1, 1, 5, 1, 2, 1, 6, 1, 7, 3, 1, 2, 8, 0, 1, 1, 5, 0, 2, 1, 6, 1, 2, 2, 1, 1, 8, 5, 1, 0})
	f.Fuzz(runDynBufModel)
}

// TestCAPBackfillKeepsCachedDeltasSorted is the regression test for late
// ads registered out of ID order (shards register concurrently minted IDs in
// any order): the back-fill into a cached message's delta list has to land
// at its sorted position, or the merge that later evicts the message walks
// past it and leaves the ad's contribution in the buffer.
func TestCAPBackfillKeepsCachedDeltasSorted(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	e.AddAd(simpleAd(10, 7, 0.5))
	now := base0
	deliver(t, e, 1, now, textproc.SparseVector{7: 1})
	for _, id := range []adstore.AdID{30, 20, 5} { // not ascending
		if err := e.AddAd(simpleAd(id, 7, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.BufferSize(1); got != 4 {
		t.Fatalf("buffer holds %d ads, want all 4", got)
	}
	// Six posts on another term fill the window and evict message 1.
	for i := 0; i < 6; i++ {
		now = now.Add(time.Minute)
		deliver(t, e, feed.MessageID(2+i), now, textproc.SparseVector{8: 1})
	}
	if got := e.BufferSize(1); got != 0 {
		t.Fatalf("%d ads still buffered after their only message left the window: %+v", got, e.users[1].buf.e)
	}
}
