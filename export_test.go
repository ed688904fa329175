package caar

import "caar/internal/core"

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
		if e.shards[i].eng, err = core.NewRS(cfg.scoring(), e.store); err != nil {
			return nil, err
		}
	}
	return e, nil
}
