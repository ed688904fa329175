package topk

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestCollectorBasics(t *testing.T) {
	c := NewCollector(3)
	if c.K() != 3 || c.Len() != 0 {
		t.Fatal("fresh collector state wrong")
	}
	for id, score := range map[int64]float64{1: 0.5, 2: 0.9, 3: 0.1, 4: 0.7, 5: 0.3} {
		c.Offer(id, score)
	}
	items := c.Items()
	want := []Item{{2, 0.9}, {4, 0.7}, {1, 0.5}}
	if !reflect.DeepEqual(items, want) {
		t.Fatalf("Items = %v, want %v", items, want)
	}
}

func TestCollectorTieBreakByID(t *testing.T) {
	c := NewCollector(2)
	c.Offer(5, 1.0)
	c.Offer(3, 1.0)
	c.Offer(9, 1.0)
	items := c.Items()
	want := []Item{{3, 1.0}, {5, 1.0}}
	if !reflect.DeepEqual(items, want) {
		t.Fatalf("Items = %v, want %v", items, want)
	}
}

func TestCollectorKClamped(t *testing.T) {
	c := NewCollector(0)
	if c.K() != 1 {
		t.Fatalf("K = %d, want 1", c.K())
	}
	c.Offer(1, 0.1)
	c.Offer(2, 0.2)
	items := c.Items()
	if len(items) != 1 || items[0].ID != 2 {
		t.Fatalf("Items = %v", items)
	}
}

func TestCollectorOfferReturn(t *testing.T) {
	c := NewCollector(1)
	if !c.Offer(1, 0.5) {
		t.Fatal("first offer should be retained")
	}
	if c.Offer(2, 0.4) {
		t.Fatal("weaker offer should be rejected")
	}
	if !c.Offer(3, 0.6) {
		t.Fatal("stronger offer should be retained")
	}
	if c.Items()[0].ID != 3 {
		t.Fatal("strongest not retained")
	}
}

func TestWouldAccept(t *testing.T) {
	c := NewCollector(2)
	if !c.WouldAccept(0.0) {
		t.Fatal("non-full collector must accept anything")
	}
	c.Offer(1, 0.5)
	c.Offer(2, 0.7)
	if c.WouldAccept(0.4) {
		t.Fatal("score below threshold should be rejected")
	}
	if !c.WouldAccept(0.6) {
		t.Fatal("score above threshold should be accepted")
	}
	if !c.WouldAccept(0.5) {
		t.Fatal("score equal to threshold is a potential ID tie-break win")
	}
}

// TestCollectorMatchesSort is the exactness property: the collector must
// agree with sort-and-truncate on random inputs, including duplicates.
func TestCollectorMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(100)
		k := 1 + rng.Intn(10)
		c := NewCollector(k)
		var all []Item
		for i := 0; i < n; i++ {
			it := Item{ID: int64(rng.Intn(30)), Score: float64(rng.Intn(10)) / 10}
			all = append(all, it)
			c.Offer(it.ID, it.Score)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
		if len(all) > k {
			all = all[:k]
		}
		got := c.Items()
		if len(got) == 0 && len(all) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, all) {
			t.Fatalf("trial %d (n=%d k=%d): got %v want %v", trial, n, k, got, all)
		}
	}
}

func BenchmarkCollectorOffer(b *testing.B) {
	c := NewCollector(10)
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 4096)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Offer(int64(i), scores[i%len(scores)])
	}
}

// TestCollectorHugeKAllocatesNothingUpFront: k is a retention limit; a
// caller-supplied k in the billions must not reserve memory for candidates
// that may never arrive.
func TestCollectorHugeKAllocatesNothingUpFront(t *testing.T) {
	c := NewCollector(2_000_000_000)
	if c.K() != 2_000_000_000 || cap(c.heap) > maxPrealloc {
		t.Fatalf("K = %d with room for %d items before the first offer, want at most %d", c.K(), cap(c.heap), maxPrealloc)
	}
	for i := 0; i < 3*maxPrealloc; i++ {
		c.Offer(int64(i), float64(i%7))
	}
	if c.Len() != 3*maxPrealloc {
		t.Fatalf("kept %d of %d offers below k", c.Len(), 3*maxPrealloc)
	}
}

// TestCollectorOfferDoesNotAllocate: a ranking pays for its collector and its
// result, not for each candidate it retains (heap.Push boxes its argument).
func TestCollectorOfferDoesNotAllocate(t *testing.T) {
	c := NewCollector(20)
	allocs := testing.AllocsPerRun(100, func() {
		c.heap = c.heap[:0]
		for i := 0; i < 100; i++ {
			c.Offer(int64(i), float64(i*7%13))
		}
	})
	if allocs != 0 || c.Len() != 20 {
		t.Fatalf("100 offers to a collector of 20 allocate %.0f times and keep %d, want 0 and 20", allocs, c.Len())
	}
}
