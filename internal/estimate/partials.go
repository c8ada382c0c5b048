package estimate

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/interval"
	"github.com/approxdb/congress/internal/sample"
)

// gatherChunk is the batch size of the columnar scan path: the
// aggregate column is gathered this many rows at a time, with one
// cancellation poll per chunk (matches engine's vectorized chunk size).
const gatherChunk = 4096

// GroupPartial is the mergeable per-group state of one estimation scan:
// the output group key plus the interval.Moments of every stratum that
// maps to it. Partials computed over disjoint sets of strata — per-shard
// synopses, or any other partition — merge into exactly the state a
// single scan over the union would have produced. The confidence
// interval is taken once, after the merge, by Finalize.
//
// Partials are confidence- and aggregate-independent: one scan serves
// SUM, COUNT and AVG at any confidence level.
type GroupPartial struct {
	// Key is the output group key (see Query.GroupKey).
	Key string
	interval.Moments
}

// emptyPartial returns a zero-information partial for key.
func emptyPartial(key string) GroupPartial {
	return GroupPartial{Key: key, Moments: interval.NewMoments()}
}

// Partials scans the stratified sample and returns per-group partials in
// first-appearance order (strata are visited in sorted key order).
func Partials(st *sample.Stratified[engine.Row], q Query) ([]GroupPartial, error) {
	return PartialsCtx(context.Background(), st, q)
}

// PartialsCtx is the scan half of RunCtx: it reduces every stratum into
// its output group's GroupPartial and performs no statistics that depend
// on the aggregate or confidence level. q.Agg and q.Confidence are
// ignored. Cancellation is observed every pollEvery sampled rows.
func PartialsCtx(ctx context.Context, st *sample.Stratified[engine.Row], q Query) ([]GroupPartial, error) {
	if q.Value == nil && q.ValueIndex == nil {
		return nil, errors.New("estimate: Query.Value is required")
	}
	cells := make(map[string]*GroupPartial)
	var order []string
	cell := func(key string) *GroupPartial {
		c := cells[key]
		if c == nil {
			p := emptyPartial(key)
			c = &p
			cells[key] = c
			order = append(order, key)
		}
		return c
	}

	scanned := 0 // rows visited across strata, for cancellation polling
	// Reused gather scratch for the columnar (ValueIndex) path; nil and
	// never allocated when every scan goes through q.Value.
	var (
		gvals []float64
		goks  []bool
	)
	for _, sk := range st.Keys() {
		s, ok := st.Get(sk)
		if !ok || len(s.Items) == 0 {
			continue
		}
		sf := s.ScaleFactor()
		if sf < 1 {
			sf = 1
		}
		// Every tuple of a stratum carries the same grouping-column
		// values (a stratum is a finest group and the output grouping is
		// a subset of the synopsis grouping), so the key can be read off
		// the first tuple whether or not it passes the predicate.
		var key string
		if q.GroupKey != nil {
			key = q.GroupKey(s.Items[0])
		}
		// Both scan paths below feed values through Stratum.Add in row
		// order, so the float operation sequence — and therefore every
		// estimate bit — is identical whichever path runs.
		acc := interval.NewStratum(sf)
		if q.ValueIndex != nil {
			// Columnar path: gather the aggregate column chunk by chunk
			// with one cancellation poll per chunk instead of a closure
			// call and poll check per row.
			ci := *q.ValueIndex
			items := s.Items
			for lo := 0; lo < len(items); lo += gatherChunk {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				hi := lo + gatherChunk
				if hi > len(items) {
					hi = len(items)
				}
				gvals, goks = engine.AppendColumnFloats(items[lo:hi], ci, gvals[:0], goks[:0])
				for i, v := range gvals {
					if goks[i] {
						acc.Add(v)
					}
				}
			}
		} else {
			for _, row := range s.Items {
				if scanned&(pollEvery-1) == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				scanned++
				v, ok := q.Value(row)
				if !ok {
					continue
				}
				acc.Add(v)
			}
		}
		c := cell(key)
		if acc.N() == 0 {
			// Zero-contribution stratum: every sampled row failed the
			// predicate. The group's partial records it explicitly so a
			// merge (and Finalize) can widen the bound for the unsampled
			// population instead of treating absence as certainty.
			c.ZeroN += len(s.Items)
			if sf > 1 {
				c.ZeroScaled += float64(s.Population)
			}
			continue
		}
		c.AddStratum(&acc)
	}

	out := make([]GroupPartial, 0, len(order))
	for _, key := range order {
		out = append(out, *cells[key])
	}
	return out, nil
}

// MergePartials combines per-shard (or otherwise partitioned) partials
// group by group: sums add, variances add, ranges widen. Groups present
// in some inputs and absent from others merge as if absent inputs
// contributed the empty partial. The output is sorted by group key, so
// the merge is deterministic regardless of shard completion order.
func MergePartials(parts ...[]GroupPartial) []GroupPartial {
	merged := make(map[string]*GroupPartial)
	for _, list := range parts {
		for i := range list {
			p := &list[i]
			m := merged[p.Key]
			if m == nil {
				cp := *p
				merged[p.Key] = &cp
				continue
			}
			m.Merge(&p.Moments)
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]GroupPartial, 0, len(keys))
	for _, k := range keys {
		out = append(out, *merged[k])
	}
	return out
}

// Finalize turns merged partials into estimates with confidence bounds,
// taking the interval exactly once — per-shard half-widths are never
// added directly; their variances are, which is the statistically sound
// combination. Input order is preserved. Groups with no passing rows
// (pure zero-contribution records) are dropped, matching SQL group-by
// semantics; their information still mattered during the merge, where
// they widened the bounds of groups that do appear.
//
// The value and half-width of each group are interval.Moments' Sum,
// Count or Avg at confidence (0 means interval.DefaultConfidence) — the
// same functions the SQL engine's error columns call.
func Finalize(partials []GroupPartial, agg Aggregate, confidence float64) ([]GroupEstimate, error) {
	conf := confidence
	if conf == 0 {
		conf = interval.DefaultConfidence
	}
	if conf <= 0 || conf >= 1 {
		return nil, fmt.Errorf("estimate: confidence %v out of (0,1)", conf)
	}

	out := make([]GroupEstimate, 0, len(partials))
	for i := range partials {
		c := &partials[i]
		if c.N == 0 && c.ExactCount == 0 {
			continue
		}
		ge := GroupEstimate{Key: c.Key, SampleN: c.N}
		switch agg {
		case Sum:
			ge.Value, ge.Bound = c.Sum(conf)
		case Count:
			ge.Value, ge.Bound = c.Count(conf)
		case Avg:
			var ok bool
			if ge.Value, ge.Bound, ok = c.Avg(conf); !ok {
				continue
			}
		default:
			return nil, fmt.Errorf("estimate: unknown aggregate %v", agg)
		}
		out = append(out, ge)
	}
	return out, nil
}
