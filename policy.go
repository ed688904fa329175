package caar

import (
	"sync"
	"time"

	"caar/obs/trace"
)

// ServingPolicy adds delivery constraints on top of raw relevance ranking:
// frequency capping (stop showing a user the same ad over and over) and
// campaign diversity (avoid a single advertiser monopolizing a slate).
//
// Both constraints are applied by over-fetching overfetch·k candidates from
// the engine and greedily selecting down to k. Under extreme skew (e.g.
// thousands of same-campaign ads outranking everything) the slate can come
// back shorter than k.
type ServingPolicy struct {
	// FrequencyCap is the maximum impressions of one ad a single user may
	// receive within FrequencyWindow. 0 disables capping.
	FrequencyCap int
	// FrequencyWindow is the sliding period the cap applies to.
	FrequencyWindow time.Duration
	// MaxPerCampaign bounds ads of one campaign in a single slate
	// (campaign-less ads are never constrained). 0 disables.
	MaxPerCampaign int
}

// overfetch scales the candidate fetch of a request with an active policy.
const overfetch = 4

// enabled reports whether any constraint is active.
func (p ServingPolicy) enabled() bool {
	return (p.FrequencyCap > 0 && p.FrequencyWindow > 0) || p.MaxPerCampaign > 0
}

// impressionLog tracks recent impression times per (user, ad) for frequency
// capping. Old entries are pruned lazily on access.
type impressionLog struct {
	mu   sync.Mutex
	byUA map[string]map[string][]time.Time
}

func newImpressionLog() *impressionLog {
	return &impressionLog{byUA: make(map[string]map[string][]time.Time)}
}

// record notes one impression of ad for user at time t.
func (l *impressionLog) record(user, ad string, t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ads := l.byUA[user]
	if ads == nil {
		ads = make(map[string][]time.Time)
		l.byUA[user] = ads
	}
	ads[ad] = append(ads[ad], t)
}

// countSince returns the impressions of ad seen by user within [t−window, t],
// pruning entries that have aged out.
func (l *impressionLog) countSince(user, ad string, t time.Time, window time.Duration) int {
	l.mu.Lock() //caarlint:allow readpathlock impression log is mutable frequency-cap state; serialization here is the design
	defer l.mu.Unlock()
	ads := l.byUA[user]
	if ads == nil {
		return 0
	}
	times := ads[ad]
	cutoff := t.Add(-window)
	live := times[:0]
	for _, ts := range times {
		if ts.After(cutoff) && !ts.After(t) {
			live = append(live, ts)
		} else if ts.After(t) {
			// future-stamped entries (clock skew) are kept but not counted
			live = append(live, ts)
		}
	}
	if len(live) == 0 {
		delete(ads, ad)
		if len(ads) == 0 {
			delete(l.byUA, user)
		}
		return 0
	}
	ads[ad] = live
	n := 0
	for _, ts := range live {
		if !ts.After(t) {
			n++
		}
	}
	return n
}

// RecordImpressionTo registers that user actually saw ad at time t (for
// frequency capping) and bills the impression against the ad's campaign
// budget. It reports whether the impression was billable.
func (e *Engine) RecordImpressionTo(user, adID string, at time.Time) (bool, error) {
	if _, err := e.lookupUser(user); err != nil {
		return false, err
	}
	served, err := e.ServeImpression(adID, at)
	if err != nil {
		return false, err
	}
	if served {
		e.impressions.record(user, adID, at)
	}
	return served, nil
}

// RecommendWithPolicy returns up to k ads for user, applying the serving
// policy's frequency cap and campaign-diversity constraints on top of the
// relevance ranking. With a zero policy it is equivalent to Recommend.
func (e *Engine) RecommendWithPolicy(user string, k int, at time.Time, policy ServingPolicy) ([]Recommendation, error) {
	recs, _, err := e.recommend(user, k, at, policy, TraceRequest{})
	return recs, err
}

// applyPolicy greedily selects up to k recommendations from the over-fetched
// candidate list under the policy's constraints. With no active constraint
// the candidates pass through unchanged (the pipeline fetched exactly k).
// Campaigns resolve against the request's directory snapshot d — one
// atomic load made by the caller covers every candidate, where the seed
// code took the global read lock once per candidate. When the request
// carries a trace, every drop decision is recorded as a policy action, so
// an explained slate shows why a higher-scored candidate is missing from
// the response.
func (e *Engine) applyPolicy(d *directory, user string, k int, at time.Time, policy ServingPolicy, candidates []Recommendation, tr *trace.Trace) []Recommendation {
	if !policy.enabled() {
		return candidates
	}
	perCampaign := map[string]int{}
	out := make([]Recommendation, 0, k)
	for _, cand := range candidates {
		if len(out) == k {
			break
		}
		if policy.FrequencyCap > 0 && policy.FrequencyWindow > 0 {
			seen := e.impressions.countSince(user, cand.AdID, at, policy.FrequencyWindow)
			if seen >= policy.FrequencyCap {
				if tr != nil {
					tr.AddPolicyAction(cand.AdID, "dropped_frequency_cap")
				}
				continue
			}
		}
		if policy.MaxPerCampaign > 0 {
			if camp := d.campaignOf(cand.AdID); camp != "" {
				if perCampaign[camp] >= policy.MaxPerCampaign {
					if tr != nil {
						tr.AddPolicyAction(cand.AdID, "dropped_campaign_diversity")
					}
					continue
				}
				perCampaign[camp]++
			}
		}
		out = append(out, cand)
	}
	return out
}
