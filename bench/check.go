package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/pkg/client"
)

// checker verifies every reply of a pass and scores the first reply to
// each request with a known exact answer. Answers on the read-only
// workloads are deterministic for a seed, so the first reply to a
// request stands for all of them.
type checker struct {
	truths []truthDef
	exact  []map[string][]float64 // per truth: group key -> exact aggregates
	scored []atomic.Bool          // per truth and kind (est before hyb): already scored

	mu       sync.Mutex
	errSum   float64 // sum over scored groups of |estimate - exact| / |exact|
	errN     int
	covered  int // scored groups whose exact value lies within the bound
	coverN   int
	checked  atomic.Int64 // replies that went through check
	failures []string     // first few failure messages, for the report
}

const relTol = 1e-9

// newChecker computes the exact answers of truths on w's base table.
func newChecker(w *congress.Warehouse, truths []truthDef) (*checker, error) {
	c := &checker{truths: truths, exact: make([]map[string][]float64, len(truths)), scored: make([]atomic.Bool, 2*len(truths))}
	byGrouping := map[string]map[string][]float64{}
	for i, t := range truths {
		if t.SQL != "" {
			m, err := exactGroups(w, t.SQL, t.GroupCols)
			if err != nil {
				return nil, err
			}
			c.exact[i] = m
			continue
		}
		cols := strings.Join(t.Grouping, ", ")
		all, ok := byGrouping[cols]
		if !ok {
			sql := fmt.Sprintf("select %s, sum(%s), count(%s), avg(%s) from %s group by %s",
				cols, aggColumn, aggColumn, aggColumn, tableName, cols)
			var err error
			if all, err = exactGroups(w, sql, len(t.Grouping)); err != nil {
				return nil, err
			}
			byGrouping[cols] = all
		}
		ai := map[string]int{"sum": 0, "count": 1, "avg": 2}[t.Agg]
		m := make(map[string][]float64, len(all))
		for k, v := range all {
			m[k] = v[ai : ai+1]
		}
		c.exact[i] = m
	}
	return c, nil
}

// exactGroups runs sql exactly on w's base tables and keys the
// aggregate columns by the rendered grouping columns.
func exactGroups(w *congress.Warehouse, sql string, groupCols int) (map[string][]float64, error) {
	res, err := w.Query(sql)
	if err != nil {
		return nil, fmt.Errorf("bench: exact %q: %w", sql, err)
	}
	out := make(map[string][]float64, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, groupCols)
		for i := range parts {
			parts[i] = row[i].String()
		}
		vals := make([]float64, len(row)-groupCols)
		for i := range vals {
			f, ok := row[groupCols+i].AsFloat()
			if !ok {
				return nil, fmt.Errorf("bench: exact %q: non-numeric aggregate %v", sql, row[groupCols+i])
			}
			vals[i] = f
		}
		out[strings.Join(parts, congress.EstimateKeySep)] = vals
	}
	return out, nil
}

// wireKey renders the grouping cells of a JSON reply row the way
// exactGroups renders engine values.
func wireKey(cells []any) (string, error) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
		case string:
			parts[i] = v
		default:
			return "", fmt.Errorf("grouping cell %v has type %T", c, c)
		}
	}
	return strings.Join(parts, congress.EstimateKeySep), nil
}

func (c *checker) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	c.mu.Lock()
	if len(c.failures) < 5 {
		c.failures = append(c.failures, err.Error())
	}
	c.mu.Unlock()
	return err
}

// checkQuery verifies one /v1/query reply: status, expected group
// count, finite values and bounds, lo <= value <= hi. A nil return
// means the reply passed.
func (c *checker) checkQuery(o *op, resp *client.QueryResponse, err error) error {
	c.checked.Add(1)
	if err != nil {
		return c.fail("%s: %w", o.Kind, err)
	}
	if o.Kind == kindSQL {
		return c.checkSQL(o, resp)
	}
	if len(resp.Groups) != o.Groups {
		return c.fail("%s %v: %d groups, want %d", o.Kind, o.Query.Estimate.GroupBy, len(resp.Groups), o.Groups)
	}
	for _, g := range resp.Groups {
		if !finite(g.Value) || !finite(g.Bound) || g.Bound < 0 {
			return c.fail("%s %v %v: value %v bound %v", o.Kind, o.Query.Estimate.GroupBy, g.Group, g.Value, g.Bound)
		}
		if o.Kind == kindHyb && (g.Bound != 0 || g.SampleN != 0) {
			return c.fail("hyb %v %v: bound %v sample_n %d, want an exact answer", o.Query.Estimate.GroupBy, g.Group, g.Bound, g.SampleN)
		}
	}
	if o.Truth < 0 {
		return nil
	}
	slot := 2 * o.Truth
	if o.Kind == kindHyb {
		slot++
	}
	if !c.scored[slot].CompareAndSwap(false, true) {
		return nil
	}
	exact := c.exact[o.Truth]
	var errSum float64
	var errN, covered int
	for _, g := range resp.Groups {
		want, ok := exact[strings.Join(g.Group, congress.EstimateKeySep)]
		if !ok {
			return c.fail("%s %v: group %v is not in the exact answer", o.Kind, o.Query.Estimate.GroupBy, g.Group)
		}
		if o.Kind == kindHyb {
			if relDiff(g.Value, want[0]) > relTol {
				return c.fail("hyb %v %v: %v, exact %v", o.Query.Estimate.GroupBy, g.Group, g.Value, want[0])
			}
			continue
		}
		if want[0] != 0 {
			errSum += math.Abs(g.Value-want[0]) / math.Abs(want[0])
			errN++
		}
		if math.Abs(g.Value-want[0]) <= g.Bound {
			covered++
		}
	}
	if o.Kind == kindEst {
		c.mu.Lock()
		c.errSum += errSum
		c.errN += errN
		c.covered += covered
		c.coverN += len(resp.Groups)
		c.mu.Unlock()
	}
	return nil
}

func (c *checker) checkSQL(o *op, resp *client.QueryResponse) error {
	if len(resp.Rows) != o.Groups {
		return c.fail("sql %q: %d rows, want %d", o.Query.SQL, len(resp.Rows), o.Groups)
	}
	for _, row := range resp.Rows {
		for _, cell := range row {
			if f, ok := cell.(float64); ok && !finite(f) || cell == nil {
				return c.fail("sql %q: cell %v", o.Query.SQL, cell)
			}
		}
	}
	if o.Truth < 0 || !c.scored[2*o.Truth].CompareAndSwap(false, true) {
		return nil
	}
	exact := c.exact[o.Truth]
	groupCols := c.truths[o.Truth].GroupCols
	var errSum float64
	var errN int
	for _, row := range resp.Rows {
		key, err := wireKey(row[:groupCols])
		if err != nil {
			return c.fail("sql %q: %w", o.Query.SQL, err)
		}
		want, ok := exact[key]
		if !ok || len(want) != len(row)-groupCols {
			return c.fail("sql %q: group %q is not in the exact answer", o.Query.SQL, key)
		}
		for i, w := range want {
			got, ok := row[groupCols+i].(float64)
			if !ok {
				return c.fail("sql %q: aggregate cell %v", o.Query.SQL, row[groupCols+i])
			}
			if w != 0 {
				errSum += math.Abs(got-w) / math.Abs(w)
				errN++
			}
		}
	}
	c.mu.Lock()
	c.errSum += errSum
	c.errN += errN
	c.mu.Unlock()
	return nil
}

func (c *checker) checkInsert(o *op, resp *client.InsertResponse, err error) error {
	c.checked.Add(1)
	if err != nil {
		return c.fail("ins: %w", err)
	}
	if resp.Inserted != len(o.Insert.Rows) {
		return c.fail("ins: %d rows inserted, sent %d", resp.Inserted, len(o.Insert.Rows))
	}
	return nil
}

// groupErrMeanPct is the mean over scored groups of
// |estimate - exact| / |exact|, in percent.
func (c *checker) groupErrMeanPct() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.errN == 0 {
		return 0
	}
	return 100 * c.errSum / float64(c.errN)
}

// boundCoverFrac is the share of scored est groups whose exact value
// lies inside the returned bound.
func (c *checker) boundCoverFrac() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coverN == 0 {
		return 0
	}
	return float64(c.covered) / float64(c.coverN)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// relDiff is |a-b| scaled by the larger magnitude, floored at 1 so
// near-zero pairs do not explode.
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

// sameEstimates requires two answers over the same groups to agree to
// relTol in value and bound and exactly in sample count.
func sameEstimates(got []client.GroupEstimate, want []estimate.GroupEstimate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	byKey := make(map[string]estimate.GroupEstimate, len(want))
	for _, e := range want {
		byKey[e.Key] = e
	}
	for _, g := range got {
		key := strings.Join(g.Group, congress.EstimateKeySep)
		w, ok := byKey[key]
		switch {
		case !ok:
			return fmt.Errorf("group %v missing from the reference", g.Group)
		case relDiff(g.Value, w.Value) > relTol:
			return fmt.Errorf("group %v: value %v, reference %v", g.Group, g.Value, w.Value)
		case relDiff(g.Bound, w.Bound) > relTol:
			return fmt.Errorf("group %v: bound %v, reference %v", g.Group, g.Bound, w.Bound)
		case g.SampleN != w.SampleN:
			return fmt.Errorf("group %v: sample_n %d, reference %d", g.Group, g.SampleN, w.SampleN)
		}
	}
	return nil
}

func parseAgg(s string) congress.Aggregate {
	switch s {
	case "count":
		return congress.Count
	case "avg":
		return congress.Avg
	default:
		return congress.Sum
	}
}

// checkDistributed is the dist_estimate differential. A hyb answer is
// exact, so it must equal what a single warehouse holding the whole
// table answers from its cube. An est answer comes from each shard's
// own 7% sample, which no single-warehouse sample reproduces; it must
// equal the shards' partials merged and finalized in this process,
// which is the same estimate without HTTP fan-out or the JSON codec.
// It returns the number of comparisons that failed.
func checkDistributed(ctx context.Context, t *topology, single *congress.Warehouse) (attempted, failed int, firstErr error) {
	c, done := newClient(t.endpoint)
	defer done()
	for _, g := range groupings {
		for _, aggName := range estimateAggs {
			agg := parseAgg(aggName)
			req := client.EstimateRequest{Table: tableName, GroupBy: g, Agg: aggName, Column: aggColumn, Confidence: confidence}
			for _, noHybrid := range []bool{false, true} {
				attempted++
				var want []estimate.GroupEstimate
				var err error
				if noHybrid {
					parts := make([][]estimate.GroupPartial, len(t.shards))
					for i, sh := range t.shards {
						if parts[i], err = sh.EstimatePartialsOpts(ctx, tableName, g, aggColumn, congress.PartialsOptions{NoHybrid: true}); err != nil {
							break
						}
					}
					if err == nil {
						want, err = estimate.Finalize(estimate.MergePartials(parts...), agg, confidence)
					}
				} else {
					want, _, err = single.EstimateQueryOpts(ctx, tableName, g, agg, aggColumn, confidence, congress.ApproxOptions{NoCache: true})
				}
				var resp *client.QueryResponse
				if err == nil {
					resp, err = c.Query(ctx, client.QueryRequest{Estimate: &req, NoCache: true, NoHybrid: noHybrid})
				}
				if err == nil {
					err = sameEstimates(resp.Groups, want)
				}
				if err != nil {
					failed++
					firstErr = errors.Join(firstErr, fmt.Errorf("dist %v %s no_hybrid=%t: %w", g, aggName, noHybrid, err))
				}
			}
		}
	}
	return attempted, failed, firstErr
}
