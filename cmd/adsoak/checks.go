package main

import (
	"fmt"
	"sort"
	"strings"

	caar "caar"
)

// verdict is one machine-checked invariant outcome, embedded per recovery
// cycle in BENCH_SOAK.json.
type verdict struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

func pass(name string, format string, args ...any) verdict {
	return verdict{Name: name, Pass: true, Detail: fmt.Sprintf(format, args...)}
}

func fail(name string, format string, args ...any) verdict {
	return verdict{Name: name, Pass: false, Detail: fmt.Sprintf(format, args...)}
}

// spendEpsilon absorbs float accumulation error between the ledger's sums
// and the server's — NOT double-application, which changes spend by whole
// bids (≥ 0.05 each).
const spendEpsilon = 1e-6

// checkAckedWrites is invariant 1: no acknowledged post or ad-add may be
// lost across a crash. The server's monotone applied-post counter must cover
// every acked post (and may exceed it only by writes whose ack we never
// saw), and every acked-added, not-removed ad must be live.
func checkAckedWrites(rep caar.InvariantReport, led ledgerSnapshot) verdict {
	const name = "acked-writes-survive"
	lo, hi := uint64(led.AckedPosts), uint64(led.AckedPosts+led.UncertainPosts)
	if rep.PostsDelivered < lo {
		return fail(name, "server applied %d posts, but %d were acked — acked posts lost", rep.PostsDelivered, lo)
	}
	if rep.PostsDelivered > hi {
		return fail(name, "server applied %d posts, more than acked+in-doubt %d — writes invented or double-applied", rep.PostsDelivered, hi)
	}
	if rep.Users < led.AckedUsers {
		return fail(name, "server has %d users, but %d adds were acked", rep.Users, led.AckedUsers)
	}
	if rep.Users > led.AckedUsers+led.UncertainUsers {
		return fail(name, "server has %d users, more than acked+in-doubt %d", rep.Users, led.AckedUsers+led.UncertainUsers)
	}
	live := make(map[string]bool, len(rep.Ads))
	for _, id := range rep.Ads {
		live[id] = true
	}
	var missing []string
	for _, id := range led.MustExist {
		if !live[id] {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fail(name, "%d acked ad-adds missing after recovery: %s", len(missing), sample(missing))
	}
	return pass(name, "%d acked posts ≤ %d applied ≤ %d acked+in-doubt; %d acked ads live",
		lo, rep.PostsDelivered, hi, len(led.MustExist))
}

// checkSpendConservation is invariant 2: campaign spend is conserved. Spend
// the server reports must cover every acknowledged impression, must not
// exceed acked + in-doubt (catching double-application on replay), and must
// never exceed the budget.
func checkSpendConservation(rep caar.InvariantReport, led ledgerSnapshot) verdict {
	const name = "spend-conserved"
	var problems []string
	for _, c := range rep.Campaigns {
		acked := led.AckedSpend[c.Name]
		hi := acked + led.UncertainSpend[c.Name] + spendEpsilon
		switch {
		case c.Spent > c.Budget+spendEpsilon:
			problems = append(problems, fmt.Sprintf("%s: spent %.4f exceeds budget %.4f", c.Name, c.Spent, c.Budget))
		case c.Spent > hi:
			problems = append(problems, fmt.Sprintf("%s: spent %.4f exceeds acked+in-doubt %.4f — impressions double-applied", c.Name, c.Spent, hi))
		case c.Spent < acked-spendEpsilon:
			problems = append(problems, fmt.Sprintf("%s: spent %.4f below acked %.4f — acked impressions lost", c.Name, c.Spent, acked))
		}
	}
	if len(problems) > 0 {
		return fail(name, "%d campaigns violate conservation: %s", len(problems), sample(problems))
	}
	return pass(name, "%d campaigns within [acked, acked+in-doubt] and ≤ budget", len(rep.Campaigns))
}

// checkRemovedAds is invariant 3: an ad whose RemoveAd was acknowledged must
// never be live (or served — the traffic driver additionally checks every
// recommendation response against the same set) after the ack.
func checkRemovedAds(rep caar.InvariantReport, led ledgerSnapshot) verdict {
	const name = "removed-stay-removed"
	live := make(map[string]bool, len(rep.Ads))
	for _, id := range rep.Ads {
		live[id] = true
	}
	var back []string
	for _, id := range led.MustNotExist {
		if live[id] {
			back = append(back, id)
		}
	}
	if len(back) > 0 {
		sort.Strings(back)
		return fail(name, "%d acked-removed ads resurrected: %s", len(back), sample(back))
	}
	return pass(name, "%d acked-removed ads stayed removed", len(led.MustNotExist))
}

// checkMemoryCeiling is invariant 4: bounded structures stay within their
// declared capacity every cycle, and the heap stays flat across crash
// cycles (full journal replay must not leak).
func checkMemoryCeiling(reports []caar.InvariantReport) verdict {
	const name = "memory-ceiling-flat"
	if len(reports) == 0 {
		return fail(name, "no invariant reports collected")
	}
	for i, rep := range reports {
		// A read user's window holds WindowSize messages and its buffer can
		// owe the subtraction of WindowSize − 1 more (invariants.go).
		if rep.CachedMessages > 2*rep.WindowCapacity {
			return fail(name, "cycle %d: %d cached messages exceed twice the window capacity %d", i, rep.CachedMessages, rep.WindowCapacity)
		}
		if rep.TraceCapacity > 0 && rep.TraceCount > rep.TraceCapacity {
			return fail(name, "cycle %d: %d traces exceed ring capacity %d", i, rep.TraceCount, rep.TraceCapacity)
		}
	}
	first, last := reports[0], reports[len(reports)-1]
	heapCeiling := 3*first.HeapAllocBytes + 64<<20
	if last.HeapAllocBytes > heapCeiling {
		return fail(name, "heap grew %d → %d bytes across %d cycles (ceiling %d)",
			first.HeapAllocBytes, last.HeapAllocBytes, len(reports), heapCeiling)
	}
	if first.CandidateEntries > 0 && last.CandidateEntries > 3*first.CandidateEntries+10000 {
		return fail(name, "candidate buffers grew %d → %d entries across %d cycles",
			first.CandidateEntries, last.CandidateEntries, len(reports))
	}
	return pass(name, "windows/sketches/trace ring within capacity for %d cycles; heap %d → %d bytes",
		len(reports), first.HeapAllocBytes, last.HeapAllocBytes)
}

// sample renders at most 5 items of a problem list.
func sample(items []string) string {
	if len(items) > 5 {
		items = append(items[:5:5], "…")
	}
	return strings.Join(items, "; ")
}
