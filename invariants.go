package caar

import (
	"runtime"
	"sort"

	"caar/internal/adstore"
)

// Invariant export: a machine-checkable cut of engine state, served by the
// HTTP layer at GET /v1/invariants. The crash-recovery soak harness
// (cmd/adsoak) compares this report against its client-side ledger of
// acknowledged writes after every kill/restart cycle:
//
//  1. acked posts/ads survive — PostsDelivered and Ads bound-checked
//     against the ledger,
//  2. campaign spend is conserved — Campaigns[*].Spent never exceeds the
//     acked spend plus in-doubt requests, never exceeds Budget,
//  3. no ad serves after its RemoveAd was acked — Ads must not contain it,
//  4. memory stays bounded — CachedMessages vs WindowCapacity, the trace
//     ring vs TraceCapacity, HeapAllocBytes flat across cycles. A cached
//     message is held by a window of a user somebody reads, or by an
//     eviction that user's candidate buffer has yet to subtract; a buffer
//     WindowSize deliveries behind is freed with everything it holds, so
//     the provable worst case is users × (2·WindowSize − 1) distinct
//     cached messages — the check compares against 2 × WindowCapacity —
//     and a user nobody reads contributes none.
//
// Everything here is either a lock-free atomic read, a read of the
// immutable published directory, or takes the same locks Stats() already
// takes; the report is a consistent-enough cut for bound checks (exact
// cuts are what Snapshot is for).

// CampaignState is one campaign's budget accounting in an InvariantReport.
type CampaignState struct {
	Name   string  `json:"name"`
	Budget float64 `json:"budget"`
	Spent  float64 `json:"spent"`
}

// InvariantReport is the state export behind GET /v1/invariants.
type InvariantReport struct {
	Users          int             `json:"users"`
	FollowEdges    int             `json:"follow_edges"`
	Ads            []string        `json:"ads"` // live (servable) ad names, sorted
	Campaigns      []CampaignState `json:"campaigns"`
	PostsDelivered uint64          `json:"posts_delivered"`
	CheckIns       uint64          `json:"check_ins"`
	VocabTerms     int             `json:"vocab_terms"`
	VocabDocs      int             `json:"vocab_docs"`

	// Bounded-structure occupancy vs. capacity.
	CachedMessages   int `json:"cached_messages"`
	WindowCapacity   int `json:"window_capacity"` // users × configured window size
	CandidateEntries int `json:"candidate_buffer_entries"`
	TraceCount       int `json:"trace_count"`
	TraceCapacity    int `json:"trace_capacity"`

	// Process-level memory signals.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	Goroutines     int    `json:"goroutines"`

	// ApplyFirstOps lists journal ops the durability layer applies before
	// appending (everything else is journal-first / write-ahead). An ack for
	// one of these carries a weaker guarantee — the mutation may exist in
	// memory without a journal entry if the append fails — so the soak
	// ledger classifies such acks as uncertain rather than guaranteed.
	// Populated by the journal's Logged wrapper; empty for a bare engine.
	ApplyFirstOps []string `json:"apply_first_ops,omitempty"`
}

// Invariants assembles the report. Safe to call concurrently with serving
// traffic.
func (e *Engine) Invariants() InvariantReport {
	st := e.Stats()
	rep := InvariantReport{
		Users:            st.Users,
		FollowEdges:      st.FollowEdges,
		PostsDelivered:   st.PostsDelivered,
		CheckIns:         st.CheckIns,
		VocabTerms:       e.pipeline.Vocab.Size(),
		VocabDocs:        e.pipeline.Vocab.Docs(),
		CachedMessages:   st.CachedMessages,
		WindowCapacity:   st.Users * e.cfg.WindowSize,
		CandidateEntries: st.CandidateBufferEntries,
	}

	d := e.dir.Load()
	rep.Ads = make([]string, 0, d.adIDs.len())
	for name := range d.adIDs.all() {
		rep.Ads = append(rep.Ads, name)
	}
	sort.Strings(rep.Ads)

	e.store.ForEachCampaign(func(c *adstore.Campaign) {
		rep.Campaigns = append(rep.Campaigns, CampaignState{
			Name: c.Name, Budget: c.Budget, Spent: c.Spent(),
		})
	})
	sort.Slice(rep.Campaigns, func(i, j int) bool { return rep.Campaigns[i].Name < rep.Campaigns[j].Name })

	if e.tracer != nil {
		rep.TraceCount = e.tracer.Len()
		rep.TraceCapacity = e.tracer.Capacity()
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapAllocBytes = ms.HeapAlloc
	rep.Goroutines = runtime.NumGoroutine()
	return rep
}
