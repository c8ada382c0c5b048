package estimate

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
//
// Which strata share a group, and the group keys, come from the view's
// slotPlan for the projection of G that groupCols select, built once
// per view. Keys are joined here only when groupCols list G's columns
// out of G's order or more than once.
func PartialsCtx(ctx context.Context, v *Strata, groupCols []int, valueCol int) ([]GroupPartial, error) {
	mask, inOrder := uint32(0), true
	for _, c := range groupCols {
		p := slices.Index(v.gCols, c)
		if p < 0 {
			return nil, fmt.Errorf("estimate: column %d is not in the synopsis grouping", c)
		}
		// In G order means every position is above all earlier ones.
		inOrder = inOrder && mask>>uint(p) == 0
		mask |= 1 << uint(p)
	}
	plan := v.plan(mask)
	out := make([]GroupPartial, len(plan.keys))
	if inOrder {
		for j, key := range plan.keys {
			out[j] = emptyPartial(key)
		}
	} else {
		pos := make([]int, len(groupCols))
		for i, c := range groupCols {
			pos[i] = slices.Index(v.gCols, c)
		}
		parts := make([]string, len(pos))
		for j, r := range plan.first {
			for i, p := range pos {
				parts[i] = v.ranges[r].Parts[p]
			}
			out[j] = emptyPartial(strings.Join(parts, datacube.KeySep))
		}
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
		c := &out[plan.slot[i]]
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
//
// It is a k-way merge over the inputs in key order. An input that is
// not sorted by key (finest sample partials are in stratum order) is
// read through a sorted index permutation; no input is modified. The
// partials of one key merge in input order, then position order: the
// order, and so the float bits, of merging every list front to back.
func MergePartials(parts ...[]GroupPartial) []GroupPartial {
	cur := make([]mergeCursor, 0, len(parts))
	total := 0
	for _, list := range parts {
		if len(list) == 0 {
			continue
		}
		c := mergeCursor{list: list}
		if !slices.IsSortedFunc(list, func(a, b GroupPartial) int { return strings.Compare(a.Key, b.Key) }) {
			c.order = make([]int32, len(list))
			for i := range c.order {
				c.order[i] = int32(i)
			}
			slices.SortFunc(c.order, func(a, b int32) int {
				if d := strings.Compare(list[a].Key, list[b].Key); d != 0 {
					return d
				}
				return cmp.Compare(a, b)
			})
		}
		cur = append(cur, c)
		total += len(list)
	}
	out := make([]GroupPartial, 0, total)
	for {
		var key string
		found := false
		for i := range cur {
			if p := cur[i].head(); p != nil && (!found || p.Key < key) {
				key, found = p.Key, true
			}
		}
		if !found {
			return out
		}
		var m *GroupPartial
		for i := range cur {
			for p := cur[i].head(); p != nil && p.Key == key; p = cur[i].next() {
				if m == nil {
					out = append(out, *p)
					m = &out[len(out)-1]
				} else {
					m.Merge(&p.Moments)
				}
			}
		}
	}
}

// mergeCursor reads one MergePartials input in key order: list itself
// when order is nil, else list through order.
type mergeCursor struct {
	list  []GroupPartial
	order []int32
	at    int
}

// head returns the cursor's current partial, nil when it is exhausted.
func (c *mergeCursor) head() *GroupPartial {
	switch {
	case c.at == len(c.list):
		return nil
	case c.order == nil:
		return &c.list[c.at]
	default:
		return &c.list[c.order[c.at]]
	}
}

// next advances the cursor and returns its new head.
func (c *mergeCursor) next() *GroupPartial {
	c.at++
	return c.head()
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
