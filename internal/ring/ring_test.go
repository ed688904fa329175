package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

type entry struct {
	key  uint64
	name string
}

// checkLaps runs fill → Push false → drain in order → Pop false over several
// laps of a capacity-4 ring, checking Depth at both ends and that Pop
// leaves the slot zeroed.
func checkLaps[T comparable](t *testing.T, mk func(i int) T) {
	t.Helper()
	r := New[T](3) // rounds up to 4
	if got := len(r.slots); got != 4 {
		t.Fatalf("capacity %d, want 4", got)
	}
	var zero T
	for lap := 0; lap < 5; lap++ {
		want := make([]T, 4)
		for i := range want {
			want[i] = mk(lap*4 + i)
			if !r.Push(want[i]) {
				t.Fatalf("lap %d: Push %d failed on non-full ring", lap, i)
			}
		}
		if r.Push(mk(999)) {
			t.Fatalf("lap %d: Push succeeded on full ring", lap)
		}
		if got := r.Depth(); got != 4 {
			t.Fatalf("lap %d: Depth = %d, want 4", lap, got)
		}
		for i, w := range want {
			got, ok := r.Pop()
			if !ok || got != w {
				t.Fatalf("lap %d: Pop %d = %v ok=%v, want %v", lap, i, got, ok, w)
			}
		}
		if got, ok := r.Pop(); ok || got != zero {
			t.Fatalf("lap %d: Pop on empty ring = %v ok=%v", lap, got, ok)
		}
		if got := r.Depth(); got != 0 {
			t.Fatalf("lap %d: Depth = %d, want 0", lap, got)
		}
		for i := range r.slots {
			if r.slots[i].v != zero {
				t.Fatalf("lap %d: slot %d still holds %v after Pop", lap, i, r.slots[i].v)
			}
		}
	}
}

func TestRingLapsPointer(t *testing.T) {
	checkLaps(t, func(i int) *entry { return &entry{key: uint64(i)} })
}

func TestRingLapsStruct(t *testing.T) {
	checkLaps(t, func(i int) entry { return entry{key: uint64(i), name: "k"} })
}

// TestRingConcurrentProducers pushes disjoint value ranges from several
// goroutines through a small ring into one consumer: every value must come
// out exactly once and Depth must never exceed capacity.
func TestRingConcurrentProducers(t *testing.T) {
	const (
		producers = 4
		perProd   = 5000
		capacity  = 8
	)
	r := New[*entry](capacity)
	var overDepth atomic.Int64
	checkDepth := func() {
		if d := r.Depth(); d > capacity {
			overDepth.Store(int64(d))
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				e := &entry{key: uint64(p*perProd + i)}
				for !r.Push(e) {
					checkDepth()
					runtime.Gosched()
				}
				checkDepth()
			}
		}(p)
	}

	seen := make([]int, producers*perProd)
	last := [producers]int{-1, -1, -1, -1}
	for n := 0; n < len(seen); {
		e, ok := r.Pop()
		checkDepth()
		if !ok {
			runtime.Gosched()
			continue
		}
		n++
		seen[e.key]++
		// One producer's values stay in the order it pushed them.
		p, i := int(e.key)/perProd, int(e.key)%perProd
		if i <= last[p] {
			t.Fatalf("producer %d: value %d popped after %d", p, i, last[p])
		}
		last[p] = i
	}
	wg.Wait()

	if _, ok := r.Pop(); ok {
		t.Fatal("Pop succeeded after every pushed value was consumed")
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("value %d popped %d times", k, c)
		}
	}
	if d := overDepth.Load(); d != 0 {
		t.Fatalf("Depth reached %d, capacity %d", d, capacity)
	}
}

// The ring sits on every recommend (hot-key record) and every post (ingest
// accept): neither element type may cost an allocation to pass through.
func TestRingPushPopDoesNotAllocate(t *testing.T) {
	ptrs, structs := New[*entry](8), New[entry](8)
	p, s := &entry{key: 1}, entry{key: 2, name: "k"}
	if n := testing.AllocsPerRun(1000, func() {
		ptrs.Push(p)
		ptrs.Pop()
		structs.Push(s)
		structs.Pop()
	}); n != 0 {
		t.Fatalf("Push+Pop allocated %v times per run", n)
	}
}
