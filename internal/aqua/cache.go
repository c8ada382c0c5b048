package aqua

import (
	"context"
	"fmt"
	"time"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/qcache"
	"github.com/approxdb/congress/internal/rewrite"
)

// defaultParseEntries bounds the parse cache. Entries are tiny (an AST
// each), so the bound exists only to cap pathological workloads that
// never repeat a query text.
const defaultParseEntries = 4096

// CacheStatus reports how an answer was produced relative to the result
// cache.
type CacheStatus int

const (
	// CacheBypass: the result cache was disabled or explicitly skipped.
	CacheBypass CacheStatus = iota
	// CacheMiss: the query executed and its answer was cached.
	CacheMiss
	// CacheHit: the answer came from the cache (or a shared in-flight
	// execution of the same query).
	CacheHit
)

// String renders the status as the wire form used by the
// X-Congress-Cache response header.
func (cs CacheStatus) String() string {
	switch cs {
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	default:
		return "bypass"
	}
}

// QueryOptions tunes one AnswerQuery call.
type QueryOptions struct {
	// Strategy overrides the synopsis's default rewriting strategy when
	// UseStrategy is set.
	Strategy    rewrite.Strategy
	UseStrategy bool
	// NoCache skips the result cache for this call: the query executes
	// against the sample and the answer is not stored.
	NoCache bool
}

// EnableResultCache switches on the epoch-invalidated answer cache.
// maxEntries <= 0 disables caching; maxBytes <= 0 means no byte bound.
// Safe to call at any time; in-flight queries finish against whichever
// cache they started with.
func (a *Aqua) EnableResultCache(maxEntries int, maxBytes int64) {
	c := qcache.New(maxEntries, maxBytes, qcache.Events{
		Hit:   a.tel.CacheHit,
		Miss:  a.tel.CacheMiss,
		Evict: a.tel.CacheEviction,
	})
	a.results.Store(c)
}

// ResultCache exposes the active result cache (nil when disabled). The
// warehouse front-end shares it for caching direct estimates.
func (a *Aqua) ResultCache() *qcache.Cache {
	return a.results.Load()
}

// AnswerQuery answers an approximate query through the full cached read
// path: parse cache, rewrite, and — when enabled and not bypassed —
// the result cache. The returned Result may be shared with concurrent
// callers of the same query and must be treated as read-only.
//
// Staleness contract: the synopsis epoch is loaded before execution and
// embedded in the cache key, and every data change bumps the epoch after
// becoming visible, so a cached answer is never older than the synopsis
// state at its key's epoch. See Synopsis.bumpEpoch.
func (a *Aqua) AnswerQuery(ctx context.Context, query string, opts QueryOptions) (*engine.Result, CacheStatus, error) {
	start := time.Now()
	s, stmt, fp, err := a.route(query)
	if err != nil {
		return nil, CacheBypass, err
	}
	strat := s.cfg.Rewrite
	if opts.UseStrategy {
		strat = opts.Strategy
	}
	rc := a.ResultCache()
	if rc == nil || opts.NoCache {
		res, err := a.answer(ctx, s, stmt, strat)
		if err == nil {
			a.tel.ObserveAnswer(time.Since(start))
		}
		return res, CacheBypass, err
	}
	key := resultKey(s, strat, fp)
	v, hit, err := rc.Do(ctx, key, func() (any, int64, error) {
		res, err := a.answer(ctx, s, stmt, strat)
		if err != nil {
			return nil, 0, err
		}
		return res, ResultCost(res), nil
	})
	if err != nil {
		return nil, CacheMiss, err
	}
	a.tel.ObserveAnswer(time.Since(start))
	status := CacheMiss
	if hit {
		status = CacheHit
	}
	return v.(*engine.Result), status, nil
}

// resultKey versions a cached answer by synopsis identity and epoch. The
// epoch MUST be loaded before the query executes: if a concurrent
// refresh lands mid-execution, the fresher answer is stored under the
// pre-refresh key, where it is at worst unreachable — never stale.
func resultKey(s *Synopsis, strat rewrite.Strategy, fingerprint string) string {
	return fmt.Sprintf("q\x00%d\x00%d\x00%d\x00%s", s.id, s.epoch.Load(), int(strat), fingerprint)
}

// ResultCost approximates the resident size of a Result for the cache's
// byte bound: slice/header overhead plus string payloads.
func ResultCost(res *engine.Result) int64 {
	if res == nil {
		return 0
	}
	cost := int64(64)
	for _, c := range res.Columns {
		cost += int64(16 + len(c))
	}
	for _, row := range res.Rows {
		cost += 24
		for _, v := range row {
			cost += int64(32 + len(v.S))
		}
	}
	return cost
}
