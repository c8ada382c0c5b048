package estimate

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/interval"
)

// gatherChunk is the number of rows of a stratum the scan reads
// between two cancellation polls (matches engine's vectorized chunk
// size).
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
	// Key is the output group key: the grouping values joined by
	// datacube.KeySep (see PartialsCtx).
	Key string
	interval.Moments
}

// emptyPartial returns a zero-information partial for key.
func emptyPartial(key string) GroupPartial {
	return GroupPartial{Key: key, Moments: interval.NewMoments()}
}

// PartialsCtx scans the sample view and reduces every stratum into its
// output group's GroupPartial, returned in first-appearance order
// (strata are visited in sorted key order). groupCols are the row
// ordinals of the output grouping — a subset of the synopsis grouping
// G, possibly empty — and valueCol the ordinal of the measure: the same
// request Synopsis.ExactPartials answers from the cube. A group key is
// the stratum's rendered values of groupCols joined by datacube.KeySep,
// the key ExactPartials builds; the empty grouping keys its one group
// "". A row whose measure is NULL contributes nothing. No statistic
// that depends on the aggregate or confidence level is taken here.
// Cancellation is observed once per gatherChunk rows of a stratum.
func PartialsCtx(ctx context.Context, v *Strata, groupCols []int, valueCol int) ([]GroupPartial, error) {
	pos := make([]int, len(groupCols))
	for i, c := range groupCols {
		if pos[i] = slices.Index(v.gCols, c); pos[i] < 0 {
			return nil, fmt.Errorf("estimate: column %d is not in the synopsis grouping", c)
		}
	}
	parts := make([]string, len(pos))
	out := []GroupPartial{}
	index := make(map[string]int) // key -> position in out
	cell := func(s *StratumRange) *GroupPartial {
		for i, p := range pos {
			parts[i] = s.Parts[p]
		}
		key := strings.Join(parts, datacube.KeySep)
		j, ok := index[key]
		if !ok {
			j = len(out)
			index[key] = j
			out = append(out, emptyPartial(key))
		}
		return &out[j]
	}

	lane := v.batch.FloatLane(valueCol)
	for i := range v.ranges {
		s := &v.ranges[i]
		if s.Lo == s.Hi {
			continue
		}
		sf := s.SF
		if sf < 1 {
			sf = 1
		}
		// Values feed Stratum.Add in row order, so the float operation
		// sequence — and therefore every estimate bit — is fixed by the
		// sample alone.
		acc := interval.NewStratum(sf)
		for lo := s.Lo; lo < s.Hi; lo += gatherChunk {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for j := lo; j < min(lo+gatherChunk, s.Hi); j++ {
				if f, ok := lane.At(j); ok {
					acc.Add(f)
				}
			}
		}
		c := cell(s)
		if acc.N() == 0 {
			// Zero-contribution stratum: every sampled measure is NULL.
			// The group's partial records it explicitly so a merge (and
			// Finalize) can widen the bound for the unsampled population
			// instead of treating absence as certainty.
			c.ZeroN += s.Hi - s.Lo
			if sf > 1 {
				c.ZeroScaled += float64(s.Population)
			}
			continue
		}
		c.AddStratum(&acc)
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
