package hotkey

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"caar/obs"
)

func testClock(start time.Time) (func() time.Time, func(time.Duration)) {
	var mu sync.Mutex
	now := start
	return func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}, func(d time.Duration) {
			mu.Lock()
			now = now.Add(d)
			mu.Unlock()
		}
}

func TestTrackerReportsPlantedHotKey(t *testing.T) {
	clock, _ := testClock(time.Unix(10000, 0))
	tr, err := New(Config{Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tr.RecordKey(DimUsers, 7, 1)
	}
	for k := uint64(0); k < 40; k++ {
		tr.RecordKey(DimUsers, 100+k, 3)
	}
	rep, err := tr.Report(DimUsers, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Keys) != 5 {
		t.Fatalf("got %d keys", len(rep.Keys))
	}
	if rep.Keys[0].Key != "key:7" || rep.Keys[0].Count < 500 {
		t.Fatalf("hot key not on top: %+v", rep.Keys[0])
	}
	if rep.Keys[0].Count > 500+rep.Keys[0].ErrorBound {
		t.Fatalf("estimate outside bound: %+v", rep.Keys[0])
	}
	if rep.WindowWeight != 500+40*3 {
		t.Fatalf("window weight = %d", rep.WindowWeight)
	}
	if rep.Events != 540 || rep.Dropped != 0 {
		t.Fatalf("events=%d dropped=%d", rep.Events, rep.Dropped)
	}
}

func TestTrackerStringKeysAndResolver(t *testing.T) {
	clock, _ := testClock(time.Unix(10000, 0))
	tr, err := New(Config{Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tr.Record(DimCampaigns, "summer-sale", 1)
	}
	tr.Record(DimCampaigns, "b2b-q3", 1)
	rep, err := tr.Report(DimCampaigns, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Keys[0].Key != "summer-sale" || rep.Keys[0].Count != 20 {
		t.Fatalf("campaign report = %+v", rep.Keys)
	}

	// Raw keys fall back to the resolver, then to a numeric form.
	tr.RecordKey(DimUsers, 42, 9)
	tr.RecordKey(DimUsers, 43, 1)
	tr.SetResolver(DimUsers, func(key uint64) string {
		if key == 42 {
			return "alice"
		}
		return ""
	})
	urep, err := tr.Report(DimUsers, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if urep.Keys[0].Key != "alice" {
		t.Fatalf("resolver not applied: %+v", urep.Keys)
	}
	if urep.Keys[1].Key != "key:43" {
		t.Fatalf("fallback name wrong: %+v", urep.Keys)
	}
}

func TestTrackerWindowDecay(t *testing.T) {
	clock, advance := testClock(time.Unix(10000, 0))
	tr, err := New(Config{Window: 6 * time.Second, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	tr.RecordKey(DimPosters, 5, 100)
	tr.Sync()
	if rep, _ := tr.Report(DimPosters, 3, 0); len(rep.Keys) != 1 {
		t.Fatalf("key not visible: %+v", rep)
	}
	advance(10 * time.Second) // past the whole ring
	rep, err := tr.Report(DimPosters, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Keys) != 0 || rep.WindowWeight != 0 {
		t.Fatalf("window did not decay: %+v", rep)
	}
	// Lifetime counters survive decay.
	if rep.Events != 1 {
		t.Fatalf("events = %d", rep.Events)
	}
}

func TestTrackerQueueOverflowDropsNotBlocks(t *testing.T) {
	clock, _ := testClock(time.Unix(10000, 0))
	tr, err := New(Config{QueueCapacity: 8, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tr.RecordKey(DimUsers, uint64(i), 1)
	}
	rep, err := tr.Report(DimUsers, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 8 || rep.Dropped != 92 {
		t.Fatalf("events=%d dropped=%d, want 8/92", rep.Events, rep.Dropped)
	}
}

func TestTrackerUnknownDimensionAndNilSafety(t *testing.T) {
	clock, _ := testClock(time.Unix(10000, 0))
	tr, _ := New(Config{Now: clock})
	if _, err := tr.Report(Dimension("bogus"), 5, 0); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	tr.RecordKey(Dimension("bogus"), 1, 1) // must not panic
	tr.RecordKey(DimUsers, 1, 0)           // zero weight ignored
	if rep, _ := tr.Report(DimUsers, 5, 0); rep.Events != 0 {
		t.Fatalf("zero-weight event recorded: %+v", rep)
	}

	var nilT *Tracker
	nilT.RecordKey(DimUsers, 1, 1)
	nilT.Record(DimCampaigns, "x", 1)
	nilT.Sync()
	nilT.SetResolver(DimUsers, nil)
	if _, err := nilT.Report(DimUsers, 5, 0); err == nil {
		t.Fatal("nil tracker Report should error")
	}
}

func TestTrackerMetricsFamilies(t *testing.T) {
	clock, _ := testClock(time.Unix(10000, 0))
	reg := obs.NewRegistry()
	tr, err := New(Config{Metrics: reg, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	tr.RecordKey(DimUsers, 1, 5)
	tr.RecordKey(DimUsers, 1, 5)
	tr.Sync()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`caar_hot_events_total{dim="users"} 2`,
		`caar_hot_dropped_total{dim="users"} 0`,
		`caar_hot_tracked_keys{dim="users"} 1`,
		`caar_hot_window_weight{dim="users"} 10`,
		`caar_hot_top_share_ratio{dim="users"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestTrackerConcurrentRecordersWithAggregator(t *testing.T) {
	clock, _ := testClock(time.Unix(10000, 0))
	tr, err := New(Config{Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var aggWG sync.WaitGroup
	aggWG.Add(1)
	go func() {
		defer aggWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Sync()
			}
		}
	}()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.RecordKey(DimUsers, uint64(w%4), 1)
				tr.Record(DimCampaigns, fmt.Sprintf("c%d", w%3), 1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	aggWG.Wait()
	rep, err := tr.Report(DimUsers, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events+rep.Dropped != workers*per {
		t.Fatalf("events %d + dropped %d != %d", rep.Events, rep.Dropped, workers*per)
	}
	// Nothing should drop: the aggregator was draining continuously.
	if rep.Dropped != 0 {
		t.Fatalf("%d drops with a live aggregator", rep.Dropped)
	}
	if rep.WindowWeight != rep.Events {
		t.Fatalf("window weight %d != events %d", rep.WindowWeight, rep.Events)
	}
	crep, err := tr.Report(DimCampaigns, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(crep.Keys) != 3 || !strings.HasPrefix(crep.Keys[0].Key, "c") {
		t.Fatalf("campaign keys = %+v", crep.Keys)
	}
}
