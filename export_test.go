package caar

import (
	"caar/internal/core"
	"caar/internal/feed"
)

// OpenRS opens an engine whose shards run the RS baseline in place of CAP:
// the facade's policy, impressions and budgets over an exhaustive re-scan,
// the whole-stack oracle the served engine is compared with. The shards are
// still empty when they are swapped.
func OpenRS(cfg Config) (*Engine, error) {
	e, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	for i := range e.shards {
		rs, err := core.NewRS(cfg.scoring(), e.store)
		if err != nil {
			return nil, err
		}
		e.shards[i].eng = rsShard{rs}
	}
	return e, nil
}

// rsShard is an RS engine in a shard's place: it delivers a post's message,
// which the shard's windows then hold as a record of their own.
type rsShard struct{ *core.RS }

func (s rsShard) DeliverPost(p *feed.Post, followers []feed.UserID) error {
	return s.Deliver(p.Message, followers)
}
