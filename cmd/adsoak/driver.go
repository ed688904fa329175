package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	caar "caar"
	"caar/client"
	"caar/internal/adstore"
	"caar/internal/timeslot"
	"caar/workload"
)

// driver replays a generated workload against the server through the public
// client — the same retry/backoff/circuit-breaker path a real integration
// uses — recording every acknowledgment in the ledger.
type driver struct {
	cli *client.Client
	w   *workload.Workload
	led *ledger
	rng *rand.Rand

	// attempted counts stream events whose fate was settled (acked,
	// rejected, or uncertain) — the supervisor keys crash timing off it.
	attempted atomic.Int64
	// servedRemoved counts invariant-3 violations observed live: an ad
	// recommended after its RemoveAd was acknowledged.
	servedRemoved   atomic.Int64
	recommendChecks atomic.Int64

	// gate is held by run for each event, so whoever holds it has paused the
	// stream with no send in flight.
	gate sync.Mutex

	done chan struct{}
}

func newDriver(cli *client.Client, w *workload.Workload, led *ledger, seed int64) *driver {
	return &driver{
		cli: cli, w: w, led: led,
		rng:  rand.New(rand.NewSource(seed + 1_000_003)),
		done: make(chan struct{}),
	}
}

func userHandle(id uint32) string   { return fmt.Sprintf("u%04d", id) }
func adName(id adstore.AdID) string { return fmt.Sprintf("ad-%05d", id) }

// sendMut runs one mutation, retrying as long as the request certainly never
// reached the engine (open breaker during an outage, recovery-gate 503) so
// workload events are not burned while the server is down. Any other fate is
// final and returned for the ledger.
func (d *driver) sendMut(ctx context.Context, op func(context.Context) error) outcome {
	for {
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := op(cctx)
		cancel()
		o := classify(err)
		if o != outcomeNotSent {
			return o
		}
		select {
		case <-ctx.Done():
			return outcomeNotSent
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// toAPIAd converts a generated ad to its API form, using the rendered text.
func (d *driver) toAPIAd(a *adstore.Ad) caar.Ad {
	ad := caar.Ad{
		ID:       adName(a.ID),
		Text:     d.w.AdText[a.ID],
		Campaign: a.Campaign,
		Bid:      a.Bid,
	}
	if !a.Global {
		ad.Target = &caar.Target{Lat: a.Target.Center.Lat, Lng: a.Target.Center.Lng, RadiusKm: a.Target.RadiusKm}
	}
	if a.Slots != timeslot.AllSlots {
		for _, sl := range a.Slots.Slots() {
			ad.Slots = append(ad.Slots, caar.Slot(sl.String()))
		}
	}
	return ad
}

// load seeds the social graph, the campaigns and the initial ad corpus.
func (d *driver) load(ctx context.Context) error {
	for _, u := range d.w.Users {
		handle := userHandle(uint32(u.ID))
		d.led.recordUser(d.sendMut(ctx, func(c context.Context) error {
			return d.cli.AddUser(c, handle)
		}))
	}
	for _, u := range d.w.Users {
		for _, f := range d.w.Graph.Followers(u.ID) {
			follower, followee := userHandle(uint32(f)), userHandle(uint32(u.ID))
			d.sendMut(ctx, func(c context.Context) error {
				return d.cli.Follow(c, follower, followee)
			})
		}
	}
	for _, cp := range d.w.Campaigns {
		o := d.sendMut(ctx, func(c context.Context) error {
			return d.cli.AddCampaign(c, cp.Name, cp.Budget, cp.Start, cp.End)
		})
		if o == outcomeRejected {
			return fmt.Errorf("adsoak: campaign %s rejected during load", cp.Name)
		}
	}
	for _, a := range d.w.InitialAds() {
		ad := d.toAPIAd(a)
		d.led.recordAddAd(ad.ID, d.sendMut(ctx, func(c context.Context) error {
			return d.cli.AddAd(c, ad)
		}))
	}
	return ctx.Err()
}

// run streams the workload's timeline: posts, check-ins, campaign churn and
// billable impressions, with periodic recommendation reads that verify
// acked-removed ads are never served.
func (d *driver) run(ctx context.Context) {
	defer close(d.done)
	for i, ev := range d.w.Events {
		if ctx.Err() != nil {
			return
		}
		d.gate.Lock()
		d.step(ctx, i, ev)
		d.gate.Unlock()
	}
}

// step sends the i-th event of the timeline and settles its fate.
func (d *driver) step(ctx context.Context, i int, ev workload.Event) {
	switch ev.Kind {
	case workload.EventPost:
		author, text, at := userHandle(uint32(ev.User)), ev.Text, ev.Time
		d.led.recordPost(d.sendMut(ctx, func(c context.Context) error {
			return d.cli.Post(c, author, text, at)
		}))
	case workload.EventCheckIn:
		user, lat, lng, at := userHandle(uint32(ev.User)), ev.Loc.Lat, ev.Loc.Lng, ev.Time
		d.sendMut(ctx, func(c context.Context) error {
			return d.cli.CheckIn(c, user, lat, lng, at)
		})
	case workload.EventAddAd:
		ad := d.toAPIAd(d.w.AdByID(ev.Ad))
		d.led.recordAddAd(ad.ID, d.sendMut(ctx, func(c context.Context) error {
			return d.cli.AddAd(c, ad)
		}))
	case workload.EventRemoveAd:
		id := adName(ev.Ad)
		o := d.sendMut(ctx, func(c context.Context) error {
			return d.cli.RemoveAd(c, id)
		})
		// A 404 means the ad is gone (this delete retried after an
		// ack-lost predecessor, or the add itself never applied): the
		// server cannot serve it either way, which is all invariant 3
		// asserts — but only a 2xx proves OUR remove took effect, so
		// only that upgrades the ledger to acked.
		d.led.recordRemoveAd(id, o)
	case workload.EventImpression:
		a := d.w.AdByID(ev.Ad)
		id, at := adName(ev.Ad), ev.Time
		var served bool
		o := d.sendMut(ctx, func(c context.Context) error {
			var err error
			served, err = d.cli.ServeImpression(c, id, at)
			return err
		})
		d.led.recordImpression(a.Campaign, a.Bid, served, o)
	}
	d.attempted.Add(1)

	if i%53 == 0 {
		d.recommendCheck(ctx, ev.Time)
	}
}

// recommendCheck exercises the read path and asserts invariant 3 live: no
// ad acked-removed BEFORE this request was issued may appear in the answer.
func (d *driver) recommendCheck(ctx context.Context, at time.Time) {
	removed := d.led.removedAcked()
	user := userHandle(uint32(d.w.Users[d.rng.Intn(len(d.w.Users))].ID))
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	recs, err := d.cli.Recommend(cctx, user, 3, at)
	cancel()
	if err != nil {
		return // reads during an outage prove nothing
	}
	d.recommendChecks.Add(1)
	for _, r := range recs {
		if removed[r.AdID] {
			d.servedRemoved.Add(1)
		}
	}
}
