package workload

import (
	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/timeslot"
)

// Oracle answers ground-truth interest queries. Because users are GENERATED
// from latent interests, the labels are exact by construction — this
// replaces the manual expert labeling of the original evaluation (the paper
// had domain experts mark which users were interested in each ad).
type Oracle struct {
	w *Workload
	// interested[topic] = users whose interest set contains topic.
	interested map[int][]feed.UserID
}

// NewOracle builds the oracle index for a workload.
func NewOracle(w *Workload) *Oracle {
	o := &Oracle{w: w, interested: make(map[int][]feed.UserID)}
	for _, u := range w.Users {
		for _, t := range u.Interests {
			o.interested[t] = append(o.interested[t], u.ID)
		}
	}
	return o
}

// InterestedUsers returns the users genuinely interested in ad `id` during
// slot `sl`: their latent interests contain the ad's topic, the ad targets
// the slot, and — for geo-targeted ads — their home lies inside the target
// circle.
func (o *Oracle) InterestedUsers(id adstore.AdID, sl timeslot.Slot) []feed.UserID {
	topic, ok := o.w.AdTopic[id]
	if !ok {
		return nil
	}
	var ad *adstore.Ad
	for _, a := range o.w.Ads {
		if a.ID == id {
			ad = a
			break
		}
	}
	if ad == nil || !ad.Slots.Contains(sl) {
		return nil
	}
	var out []feed.UserID
	for _, u := range o.interested[topic] {
		if !ad.Global && !ad.Target.Contains(o.w.Users[int(u)].Home) {
			continue
		}
		out = append(out, u)
	}
	return out
}

// IsInterested reports whether one user is interested in one ad during a
// slot.
func (o *Oracle) IsInterested(u feed.UserID, id adstore.AdID, sl timeslot.Slot) bool {
	for _, v := range o.InterestedUsers(id, sl) {
		if v == u {
			return true
		}
	}
	return false
}
