package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/index"
	"caar/internal/textproc"
)

// bufModel is the reference dynBuf: the map it replaced, with the same
// arithmetic in the same order, so stored values must agree bit for bit.
type bufModel struct {
	u     map[uint32]float64
	scale float64
}

func (m *bufModel) set(ad uint32, nv float64) {
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

// scopeReaches are the reaches of the scoped buffer runDynBufModel keeps,
// over a 3 × 3 grid, and scopeCells the cells it is scoped to.
var (
	scopeReaches = []geo.Reach{geo.Everywhere, {MinRow: 0, MaxRow: -1, MinCol: 0, MaxCol: -1}, {MinRow: 0, MaxRow: 1, MinCol: 0, MaxCol: 1}, {MinRow: 1, MaxRow: 2, MinCol: 0, MaxCol: 2}}
	scopeCells   = []geo.Reach{noCell, {MinRow: 0, MaxRow: 0, MinCol: 0, MaxCol: 0}, {MinRow: 1, MaxRow: 1, MinCol: 1, MaxCol: 1}, {MinRow: 2, MaxRow: 2, MinCol: 2, MaxCol: 2}}
)

// runDynBufModel decodes data into a sequence of merges (of zero to three
// evictions and zero to three arrivals in one pass, as a catch-up makes them),
// agings, single sets and removes, applies each to a dynBuf and to the map
// model, and compares them after every step.
//
// It also keeps a second dynBuf scoped to one cell, as a catch-up scopes a
// user's: its merges take the lists scope keeps, and a set of an ad whose
// reach does not hold the cell removes it, as settleChurn does. scoping picks
// the cell (its low two bits) and each ad's reach (two bits an ad). Scoping
// must commute with the merge: after every step the scoped buffer is the
// in-scope part of the unscoped one, entry for entry and bit for bit, and a
// merge notes the in-scope part of what the unscoped one notes, in order.
func runDynBufModel(t *testing.T, data []byte, scoping uint64) {
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
		ad := uint32(0)
		for n := next() % 6; n > 0; n-- {
			ad += uint32(1 + next()%5)
			out = append(out, index.Delta{Slot: ad, Coeff: index.Pack(coeff())})
		}
		return weighted{d: out, c: factors[next()%len(factors)]}
	}

	cell := scopeCells[scoping&3]
	reach := make([]geo.Reach, 32) // by slot; lists reach slot 25, sets 31
	for ad := range reach {
		reach[ad] = scopeReaches[scoping>>(2+2*(ad%31))&3]
	}
	inScope := func(ad uint32) bool { return reach[ad].Holds(cell) }

	b, sb := newDynBuf(), newDynBuf()
	m := &bufModel{u: map[uint32]float64{}, scale: 1}
	var scratch []index.Delta
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
			wantNoted := make([]uint32, []int{0, viewMaxNoted - 1, viewMaxNoted}[next()%3])
			view := &topView{noted: slices.Clone(wantNoted)}
			b.view = view
			scratch = b.merge(scratch, slices.Clone(lists), evictions, noteAt)
			scoped := make([]weighted, len(lists))
			for l, w := range lists {
				scoped[l] = weighted{d: scope(nil, w.d, reach, cell), c: w.c}
			}
			sview := &topView{noted: slices.Clone(wantNoted)}
			sb.view = sview
			scratch = sb.merge(scratch, scoped, evictions, noteAt)
			wantScoped := slices.Clone(wantNoted)

			// The model adds in the order merge does: list after list.
			touched := map[uint32]float64{}
			var raised []uint32
			for l, w := range lists {
				for _, d := range w.d {
					v, ok := touched[d.Slot]
					if !ok {
						v = m.u[d.Slot]
					}
					touched[d.Slot] = v + w.c*d.Coeff.Float64()
					if l >= evictions && !slices.Contains(raised, d.Slot) {
						raised = append(raised, d.Slot)
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
					if inScope(ad) {
						wantScoped = append(wantScoped, ad)
					}
				}
			}
			for _, c := range []struct {
				name      string
				b         *dynBuf
				view      *topView
				wantNoted []uint32
			}{{"", b, view, wantNoted}, {"scoped ", sb, sview, wantScoped}} {
				if len(c.wantNoted) > viewMaxNoted {
					if c.b.view != nil {
						t.Fatalf("step %d: %sview kept with %d ads to note, limit %d", step, c.name, len(c.wantNoted), viewMaxNoted)
					}
				} else if c.b.view != c.view || !slices.Equal(c.view.noted, c.wantNoted) {
					t.Fatalf("step %d: %snoted %v, want %v (noteAt %v, view kept %v)", step, c.name, c.view.noted, c.wantNoted, noteAt, c.b.view == c.view)
				}
			}
		case 1:
			f := ages[next()%len(ages)]
			if b.age(f) != sb.age(f) {
				t.Fatalf("step %d: one buffer renormalised and the other not", step)
			}
			m.age(f)
		case 2:
			ad := uint32(next() % 32)
			b.remove(ad)
			sb.remove(ad)
			delete(m.u, ad)
		case 3:
			ad, c := uint32(next()%32), coeff()
			b.set(ad, c)
			if inScope(ad) {
				sb.set(ad, c)
			} else {
				sb.remove(ad)
			}
			m.set(ad, c/m.scale)
		}

		if b.scale != m.scale {
			t.Fatalf("step %d: scale %v, model %v", step, b.scale, m.scale)
		}
		if len(b.e) != len(m.u) {
			t.Fatalf("step %d: %d entries, model %d\n%v\n%v", step, len(b.e), len(m.u), b.e, m.u)
		}
		for i, en := range b.e {
			if i > 0 && b.e[i-1].Slot >= en.Slot {
				t.Fatalf("step %d: entries out of order at %d: %v", step, i, b.e)
			}
			if want, ok := m.u[en.Slot]; !ok || want != en.Coeff.Float64() {
				t.Fatalf("step %d: ad %d = %v, model %v (present %v)", step, en.Slot, en.Coeff.Float64(), want, ok)
			}
			if got := b.get(en.Slot); got != en.Coeff.Float64() {
				t.Fatalf("step %d: get(%d) = %v, entry holds %v", step, en.Slot, got, en.Coeff.Float64())
			}
		}
		var want []index.Delta
		for _, en := range b.e {
			if inScope(en.Slot) {
				want = append(want, en)
			}
		}
		// Packing copies the bits, so entries compare bit for bit.
		if sb.scale != b.scale || !slices.Equal(sb.e, want) {
			t.Fatalf("step %d: scoped buffer %v (scale %v), in-scope part of the unscoped one %v (scale %v)", step, sb.e, sb.scale, want, b.scale)
		}
	}
}

func TestDynBufMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 50+rng.Intn(400))
		rng.Read(data)
		runDynBufModel(t, data, rng.Uint64())
	}
}

// FuzzDynBufMerge runs runDynBufModel; a seed's second argument picks the
// scoped buffer's cell and the ads' reaches.
func FuzzDynBufMerge(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 1, 5, 2, 6, 1, 1, 1, 7, 0, 0, 0}, uint64(0x9E3779B97F4A7C15)) // one eviction and one arrival that share ad 2
	f.Add([]byte{3, 4, 8, 0, 1, 0, 1, 3, 8, 1, 0, 0}, uint64(0x94D049BB133111EB))          // set ad 4 to 1.0, merge it back to zero
	f.Add([]byte{3, 7, 8, 1, 3, 1, 3, 3, 7, 5, 1, 4}, uint64(0x2545F4914F6CDD1E))          // 1e-80 twice: renormalised; then 5e-324
	f.Add([]byte{3, 9, 6, 1, 5, 3, 9, 6, 2, 9, 2, 9}, uint64(0xBF58476D1CE4E5BC))          // flush to zero, set, remove twice
	// Three evictions and three arrivals in one pass, ad 2 in five of the lists.
	f.Add([]byte{0, 3, 3, 1, 1, 5, 1, 2, 1, 6, 1, 7, 3, 1, 2, 8, 0, 1, 1, 5, 0, 2, 1, 6, 1, 2, 2, 1, 1, 8, 5, 1, 0}, uint64(0xD6E8FEB86659FD93))
	f.Fuzz(runDynBufModel)
}

// TestCAPBackfillKeepsCachedDeltasSorted is the regression test for a late
// ad that takes a released slot, below the slot of an ad already in a cached
// message's delta list: the back-fill has to land at its sorted position, or
// the merge that later evicts the message walks past it and leaves the ad's
// contribution in the buffer.
func TestCAPBackfillKeepsCachedDeltasSorted(t *testing.T) {
	e := newTestCAP(t, DefaultCAPOptions())
	e.AddUser(1)
	for _, a := range []*adstore.Ad{simpleAd(1, 9, 0.5), simpleAd(10, 7, 0.5)} {
		if err := e.AddAd(a); err != nil {
			t.Fatal(err)
		}
	}
	// A warm buffer merges message 2, which computes its shared delta list.
	now := base0
	deliver(t, e, 1, now, textproc.SparseVector{{ID: 8, W: 1}})
	e.BufferSize(1)
	now = now.Add(time.Minute)
	deliver(t, e, 2, now, textproc.SparseVector{{ID: 7, W: 1}})
	if got := e.BufferSize(1); got != 1 || e.users[1].win.At(1).Shared.Load()&listPhase != listReady {
		t.Fatalf("buffer holds %d ads, want ad 10, merged from message 2's delta list", got)
	}
	// Ad 1 goes; once its slot is released, ad 5 takes it.
	if err := e.store.Remove(1); err != nil {
		t.Fatal(err)
	}
	e.Unregister(1)
	for id := adstore.AdID(100); id < 100+churnCap-1; id++ {
		if err := e.AddAd(simpleAd(id, 11, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddAd(simpleAd(5, 7, 0.5)); err != nil {
		t.Fatal(err)
	}
	if s5, _ := e.slotOf(5); s5 != 0 {
		t.Fatalf("ad 5 took slot %d, the scenario needs ad 1's slot 0, below ad 10's", s5)
	}
	if got := e.BufferSize(1); got != 2 {
		t.Fatalf("buffer holds %d ads, want ads 5 and 10", got)
	}
	// Posts on another term, each read, fill the window and evict message 2.
	for i := 0; i < 6; i++ {
		now = now.Add(time.Minute)
		deliver(t, e, feed.MessageID(3+i), now, textproc.SparseVector{{ID: 8, W: 1}})
		e.BufferSize(1)
	}
	if got := e.BufferSize(1); got != 0 {
		t.Fatalf("%d ads still buffered after their only message left the window: %+v", got, e.users[1].buf.e)
	}
}

// TestEntriesAreTwelveBytes pins the per-entry bytes that buffers per reader
// and delta lists per post multiply: a slot and a packed coefficient, with no
// padding.
func TestEntriesAreTwelveBytes(t *testing.T) {
	var buf dynBuf
	var p feed.Post
	if b, d := unsafe.Sizeof(buf.e[0]), unsafe.Sizeof(p.Deltas[0]); b != 12 || d != 12 {
		t.Fatalf("a buffer entry is %d bytes and a delta entry %d, want 12 each", b, d)
	}
}

// FuzzFindDeltaMatchesBinarySearch checks findDelta against
// slices.BinarySearchFunc on an ascending list of unique slots: data's bytes
// are the gaps between consecutive slots, the first at start, and the list
// ends where the next slot would pass math.MaxUint32. Besides probe, every
// entry is probed, and so are the slots just below and just above each, 0
// and math.MaxUint32.
func FuzzFindDeltaMatchesBinarySearch(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(7))                             // empty
	f.Add([]byte{0}, uint32(5), uint32(5))                            // one entry, a hit
	f.Add([]byte{3, 0, 9, 255, 1}, uint32(100), uint32(99))           // below every entry
	f.Add([]byte{3, 0, 9, 255, 1}, uint32(100), uint32(1<<20))        // above every entry
	f.Add([]byte{0, 0, 1, 1, 0}, uint32(math.MaxUint32-6), uint32(3)) // ends at math.MaxUint32
	f.Add([]byte{7, 7, 7, 7, 7, 7}, uint32(math.MaxUint32-40), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte, start, probe uint32) {
		var list []index.Delta
		for i, s := 0, uint64(start); i < len(data) && s <= math.MaxUint32; i, s = i+1, s+uint64(data[i])+1 {
			list = append(list, index.Delta{Slot: uint32(s)})
		}
		check := func(slot uint32) {
			i, ok := findDelta(list, slot)
			wi, wok := slices.BinarySearchFunc(list, slot, func(d index.Delta, s uint32) int { return cmp.Compare(d.Slot, s) })
			if i != wi || ok != wok {
				t.Fatalf("findDelta(%d) in %d slots from %d = (%d, %v), want (%d, %v)", slot, len(list), start, i, ok, wi, wok)
			}
		}
		check(probe)
		check(0)
		check(math.MaxUint32)
		for _, d := range list {
			check(d.Slot)
			check(d.Slot - 1) // wraps to math.MaxUint32 below 0, itself a probe above every entry
			check(d.Slot + 1)
		}
	})
}
