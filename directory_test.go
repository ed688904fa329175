package caar

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"caar/internal/adstore"
	"caar/internal/feed"
)

// dirModel is what one published directory must answer, as plain maps.
type dirModel struct {
	users map[string]feed.UserID
	ads   map[string]adstore.AdID // external name → internal ID
}

func (m dirModel) clone() dirModel {
	return dirModel{users: maps.Clone(m.users), ads: maps.Clone(m.ads)}
}

// checkDirectory requires d to answer exactly as the model: every get, both
// lens, the iteration invariants.go lists ads through, and absence of every
// name of the universe the model lacks.
func checkDirectory(t *testing.T, when string, d *directory, m dirModel, adUniverse int) {
	t.Helper()
	if d.users.len() != len(m.users) || len(d.names) != len(m.users) {
		t.Fatalf("%s: %d users (%d names), model has %d", when, d.users.len(), len(d.names), len(m.users))
	}
	for h, id := range m.users {
		if got, err := d.lookup(h); err != nil || got != id || d.userName(id) != h {
			t.Fatalf("%s: user %q resolves to %d (%v) and back to %q, want %d", when, h, got, err, d.userName(id), id)
		}
	}
	if _, err := d.lookup("nobody"); err == nil {
		t.Fatalf("%s: unknown handle resolves", when)
	}
	if d.adIDs.len() != len(m.ads) || d.ads.len() != len(m.ads) {
		t.Fatalf("%s: %d ad names and %d ad refs, model has %d", when, d.adIDs.len(), d.ads.len(), len(m.ads))
	}
	for i := 0; i < adUniverse; i++ {
		name := adName(i)
		want, live := m.ads[name]
		got, ok := d.adIDs.get(name)
		if ok != live || got != want {
			t.Fatalf("%s: ad %q maps to %d (%v), model says %d (%v)", when, name, got, ok, want, live)
		}
		if !live {
			continue
		}
		if ref, ok := d.ads.get(got); !ok || ref.name != name || ref.campaign != adCampaign(i) || d.campaignOf(name) != adCampaign(i) {
			t.Fatalf("%s: ad %d is %+v (%v), want name %q campaign %q", when, got, ref, ok, name, adCampaign(i))
		}
	}
	seen := 0
	for name, id := range d.adIDs.all() {
		if want, ok := m.ads[name]; !ok || want != id {
			t.Fatalf("%s: iteration yields ad %q → %d, model says %d (%v)", when, name, id, want, ok)
		}
		seen++
	}
	if seen != len(m.ads) {
		t.Fatalf("%s: iteration yields %d ads, model has %d", when, seen, len(m.ads))
	}
	seen = 0
	for id, ref := range d.ads.all() {
		if m.ads[ref.name] != id {
			t.Fatalf("%s: iteration yields ref %d → %q, model says %d", when, id, ref.name, m.ads[ref.name])
		}
		seen++
	}
	if seen != len(m.ads) {
		t.Fatalf("%s: iteration yields %d ad refs, model has %d", when, seen, len(m.ads))
	}
}

func adName(i int) string { return fmt.Sprintf("ad%03d", i) }

func adCampaign(i int) string {
	if i%3 == 0 {
		return "camp"
	}
	return ""
}

// TestDirectoryMatchesModelAndOldVersionsStand drives the engine's three
// directory writers at random — AddUser, AddAd (a removed name comes back
// under a new internal ID), RemoveAd and RemoveAd's rollback when the store
// refuses — against plain maps, across many folds of the layered maps. After
// every step the published directory must answer as the model does, and so
// must the one published the step before; every directory ever published is
// re-checked against the model of its own time at intervals and at the end:
// a write into a layer that versions share would show in an old one.
func TestDirectoryMatchesModelAndOldVersionsStand(t *testing.T) {
	const (
		steps      = 1500
		adUniverse = 400
	)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := testConfig()
			cfg.DisableHotKeys = true
			e := openEngine(t, cfg)
			if err := e.AddCampaign("camp", 1000, morning, morning.AddDate(0, 1, 0)); err != nil {
				t.Fatal(err)
			}
			type version struct {
				d *directory
				m dirModel
			}
			model := dirModel{users: map[string]feed.UserID{}, ads: map[string]adstore.AdID{}}
			history := []version{{e.dir.Load(), model.clone()}}
			stuck := map[string]bool{} // ads pulled out of the store behind the engine's back
			var folds, rollbacks, readds int
			removed := map[string]bool{}

			for step := 0; step < steps; step++ {
				i := rng.Intn(adUniverse)
				name := adName(i)
				_, live := model.ads[name]
				switch op := rng.Intn(10); {
				case op == 0:
					h := fmt.Sprintf("user%04d", len(model.users))
					if err := e.AddUser(h); err != nil {
						t.Fatal(err)
					}
					model.users[h] = feed.UserID(len(model.users))
					if err := e.AddUser(h); err == nil {
						t.Fatalf("step %d: duplicate user %q accepted", step, h)
					}
				case !live:
					if err := e.AddAd(Ad{ID: name, Text: "sneaker sale", Bid: 0.5, Campaign: adCampaign(i)}); err != nil {
						t.Fatal(err)
					}
					id, ok := e.dir.Load().adIDs.get(name)
					if !ok {
						t.Fatalf("step %d: ad %q added but not mapped", step, name)
					}
					for other, otherID := range model.ads {
						if otherID == id {
							t.Fatalf("step %d: ad %q given the internal ID %d of live ad %q", step, name, id, other)
						}
					}
					model.ads[name] = id
					if removed[name] {
						readds++
					}
				case op == 1 && !stuck[name]:
					// The store refuses (the ad is gone from it): RemoveAd has
					// published the unmap by then and must publish it back.
					if err := e.store.Remove(model.ads[name]); err != nil {
						t.Fatal(err)
					}
					stuck[name] = true
					fallthrough
				case stuck[name]:
					if err := e.RemoveAd(name); err == nil {
						t.Fatalf("step %d: RemoveAd(%q) succeeded without a store record", step, name)
					}
					rollbacks++
				default:
					if err := e.RemoveAd(name); err != nil {
						t.Fatal(err)
					}
					delete(model.ads, name)
					removed[name] = true
				}

				d := e.dir.Load()
				prev := history[len(history)-1]
				if reflect.ValueOf(d.ads.base).Pointer() != reflect.ValueOf(prev.d.ads.base).Pointer() {
					folds++
				}
				checkDirectory(t, fmt.Sprintf("step %d", step), d, model, adUniverse)
				checkDirectory(t, fmt.Sprintf("step %d, the version before it", step), prev.d, prev.m, adUniverse)
				history = append(history, version{d, model.clone()})
				if step%500 == 499 {
					for v, old := range history {
						checkDirectory(t, fmt.Sprintf("version %d seen from step %d", v, step), old.d, old.m, adUniverse)
					}
				}
			}
			t.Logf("%d users, %d live ads; %d folds of the ads map, %d rollbacks, %d removed names re-added",
				len(model.users), len(model.ads), folds, rollbacks, readds)
			if folds < 10 || rollbacks == 0 || readds == 0 {
				t.Fatal("the run must cross many folds, roll a RemoveAd back and re-add a removed name")
			}
			rep := e.Invariants()
			if len(rep.Ads) != len(model.ads) {
				t.Fatalf("Invariants lists %d ads, model has %d", len(rep.Ads), len(model.ads))
			}
		})
	}
}

// TestAddAdAllocationGrowsWithTheRootOfTheCatalogue counts the bytes one
// AddAd allocates with 1 000 and with 8 000 ads already mapped. A flat
// copy-on-write directory allocates in proportion (×8); the layered one
// clones and folds O(√n) entries a call, ×√8 ≈ 2.83 on that part, next to
// the little that registering an ad costs at any size.
func TestAddAdAllocationGrowsWithTheRootOfTheCatalogue(t *testing.T) {
	bytesPerAdd := func(preload int) float64 {
		cfg := testConfig()
		cfg.DisableHotKeys = true
		e := openEngine(t, cfg)
		add := func(i int) {
			if err := e.AddAd(Ad{ID: fmt.Sprintf("ad%05d", i), Text: "sneaker sale", Bid: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < preload; i++ {
			add(i)
		}
		// Several fold periods (√8000 ≈ 90 calls), so folds count at their
		// amortised share whichever phase the preload ended in.
		const calls = 540
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			add(preload + i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls
	}
	small, large := bytesPerAdd(1000), bytesPerAdd(8000)
	t.Logf("AddAd allocates %.0f B with 1 000 ads mapped, %.0f B with 8 000 (×%.2f)", small, large, large/small)
	if large > 3*small {
		t.Fatalf("AddAd allocates %.0f B at 8 000 ads, more than 3× the %.0f B at 1 000", large, small)
	}
}
