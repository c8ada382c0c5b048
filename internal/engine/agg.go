package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/approxdb/congress/internal/interval"
	"github.com/approxdb/congress/internal/sqlparse"
)

// sortableRow pairs an output row with its precomputed ORDER BY keys.
type sortableRow struct {
	row  Row
	keys []Value
}

// aggregate executes the grouped-aggregation path: it hashes input rows
// into groups on the GROUP BY keys, feeds each group's rows into one
// accumulator per distinct aggregate expression, then evaluates the
// select list (and HAVING and ORDER BY keys) once per group with the
// aggregate results bound.
func aggregate(goCtx context.Context, items []sqlparse.SelectItem, groupBy []sqlparse.Expr, having sqlparse.Expr, orderBy []sqlparse.OrderItem, in *input) ([]sortableRow, error) {
	aggExprs := collectAggExprs(items, having, orderBy)

	type group struct {
		rep  Row // representative row for evaluating group-by columns
		accs []aggregator
	}
	groups := make(map[string]*group)
	var order []string // first-appearance order for deterministic output

	ctx := &evalCtx{env: in.env}
	var kb []byte // reused scratch: the composite key allocates only for new groups
	for ri, r := range in.rows {
		if err := pollCtx(goCtx, ri); err != nil {
			return nil, err
		}
		ctx.row = r
		kb = kb[:0]
		for _, g := range groupBy {
			v, err := ctx.eval(g)
			if err != nil {
				return nil, err
			}
			kb = v.AppendGroupKey(kb)
		}
		grp, ok := groups[string(kb)]
		if !ok {
			grp = &group{rep: r, accs: make([]aggregator, len(aggExprs))}
			for i, f := range aggExprs {
				acc, err := newAggregator(f)
				if err != nil {
					return nil, err
				}
				grp.accs[i] = acc
			}
			key := string(kb)
			groups[key] = grp
			order = append(order, key)
		}
		for _, acc := range grp.accs {
			if err := acc.add(ctx); err != nil {
				return nil, err
			}
		}
	}

	// A global aggregate over zero rows still yields one (empty) group,
	// matching SQL semantics for SELECT COUNT(*) FROM empty.
	if len(groups) == 0 && len(groupBy) == 0 {
		grp := &group{rep: nil, accs: make([]aggregator, len(aggExprs))}
		for i, f := range aggExprs {
			acc, err := newAggregator(f)
			if err != nil {
				return nil, err
			}
			grp.accs[i] = acc
		}
		groups[""] = grp
		order = append(order, "")
	}

	results := make([]groupResult, 0, len(order))
	for _, key := range order {
		grp := groups[key]
		vals := make([]Value, len(aggExprs))
		for i := range grp.accs {
			vals[i] = grp.accs[i].result()
		}
		results = append(results, groupResult{rep: grp.rep, vals: vals})
	}
	return emitGroups(in.env, aggExprs, items, having, orderBy, results)
}

// collectAggExprs gathers the distinct aggregate calls (keyed by their
// rendering) appearing in the select list, HAVING, or ORDER BY.
func collectAggExprs(items []sqlparse.SelectItem, having sqlparse.Expr, orderBy []sqlparse.OrderItem) []*sqlparse.FuncCall {
	aggExprs := make([]*sqlparse.FuncCall, 0, 4)
	seen := make(map[string]bool)
	collect := func(e sqlparse.Expr) {
		sqlparse.Walk(e, func(n sqlparse.Expr) bool {
			if f, ok := n.(*sqlparse.FuncCall); ok && sqlparse.AggregateFuncs[f.Name] {
				key := f.String()
				if !seen[key] {
					seen[key] = true
					aggExprs = append(aggExprs, f)
				}
				return false // no nested aggregates
			}
			return true
		})
	}
	for _, item := range items {
		collect(item.Expr)
	}
	collect(having)
	for _, o := range orderBy {
		collect(o.Expr)
	}
	return aggExprs
}

// groupResult is one hashed group ready for output evaluation: its
// representative input row (nil for the synthesized empty global group)
// and the computed aggregate values, parallel to the aggExprs slice.
type groupResult struct {
	rep  Row
	vals []Value
}

// emitGroups evaluates HAVING, the select list, and the ORDER BY keys
// once per group with the aggregate results bound, producing the
// pre-sort output rows. Shared by the row and vectorized executors so
// per-group evaluation semantics are identical by construction.
func emitGroups(env *rowEnv, aggExprs []*sqlparse.FuncCall, items []sqlparse.SelectItem, having sqlparse.Expr, orderBy []sqlparse.OrderItem, groups []groupResult) ([]sortableRow, error) {
	var out []sortableRow
	for _, grp := range groups {
		gctx := &evalCtx{env: env, row: grp.rep, aggs: make(map[string]Value, len(aggExprs))}
		for i, f := range aggExprs {
			gctx.aggs[f.String()] = grp.vals[i]
		}
		if having != nil {
			hv, err := gctx.eval(having)
			if err != nil {
				return nil, err
			}
			if !hv.Bool() {
				continue
			}
		}
		row := make(Row, len(items))
		for i, item := range items {
			v, err := gctx.eval(item.Expr)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		var keys []Value
		for _, o := range orderBy {
			v, err := gctx.eval(o.Expr)
			if err != nil {
				return nil, err
			}
			keys = append(keys, v)
		}
		out = append(out, sortableRow{row: row, keys: keys})
	}
	return out, nil
}

// aggregator accumulates one aggregate expression over a group's rows.
type aggregator interface {
	add(ctx *evalCtx) error
	result() Value
}

func newAggregator(f *sqlparse.FuncCall) (aggregator, error) {
	switch f.Name {
	case "count":
		if f.Star {
			return &countAcc{}, nil
		}
		if len(f.Args) != 1 {
			return nil, fmt.Errorf("engine: COUNT expects one argument")
		}
		if f.Distinct {
			return &countDistinctAcc{arg: f.Args[0], seen: make(map[string]bool)}, nil
		}
		return &countAcc{arg: f.Args[0]}, nil
	case "sum", "avg":
		if len(f.Args) != 1 {
			return nil, fmt.Errorf("engine: %s expects one argument", strings.ToUpper(f.Name))
		}
		return &sumAcc{arg: f.Args[0], isAvg: f.Name == "avg"}, nil
	case "min", "max":
		if len(f.Args) != 1 {
			return nil, fmt.Errorf("engine: %s expects one argument", strings.ToUpper(f.Name))
		}
		return &minMaxAcc{arg: f.Args[0], isMax: f.Name == "max"}, nil
	case "variance", "stddev":
		if len(f.Args) != 1 {
			return nil, fmt.Errorf("engine: %s expects one argument", strings.ToUpper(f.Name))
		}
		return &varAcc{arg: f.Args[0], isStd: f.Name == "stddev"}, nil
	case "sum_error", "avg_error", "count_error":
		return newIntervalAcc(f)
	default:
		return nil, fmt.Errorf("engine: unknown aggregate %s", strings.ToUpper(f.Name))
	}
}

type countAcc struct {
	arg sqlparse.Expr // nil for COUNT(*)
	n   int64
}

func (a *countAcc) add(ctx *evalCtx) error {
	if a.arg == nil {
		a.n++
		return nil
	}
	v, err := ctx.eval(a.arg)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.n++
	}
	return nil
}

func (a *countAcc) result() Value { return NewInt(a.n) }

type countDistinctAcc struct {
	arg  sqlparse.Expr
	seen map[string]bool
}

func (a *countDistinctAcc) add(ctx *evalCtx) error {
	v, err := ctx.eval(a.arg)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.seen[v.GroupKey()] = true
	}
	return nil
}

func (a *countDistinctAcc) result() Value { return NewInt(int64(len(a.seen))) }

type sumAcc struct {
	arg     sqlparse.Expr
	isAvg   bool
	sum     float64
	intSum  int64
	n       int64
	anyF    bool // saw a float input -> report float
	nonNull bool
}

func (a *sumAcc) add(ctx *evalCtx) error {
	v, err := ctx.eval(a.arg)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("engine: SUM/AVG over non-numeric value %s", v.K)
	}
	a.nonNull = true
	a.n++
	a.sum += f
	if v.K == KindInt {
		a.intSum += v.I
	} else {
		a.anyF = true
	}
	return nil
}

func (a *sumAcc) result() Value {
	if !a.nonNull {
		return Null
	}
	if a.isAvg {
		return NewFloat(a.sum / float64(a.n))
	}
	if !a.anyF {
		return NewInt(a.intSum)
	}
	return NewFloat(a.sum)
}

type minMaxAcc struct {
	arg   sqlparse.Expr
	isMax bool
	best  Value
	has   bool
}

func (a *minMaxAcc) add(ctx *evalCtx) error {
	v, err := ctx.eval(a.arg)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if !a.has {
		a.best = v
		a.has = true
		return nil
	}
	c := v.Compare(a.best)
	if a.isMax && c > 0 || !a.isMax && c < 0 {
		a.best = v
	}
	return nil
}

func (a *minMaxAcc) result() Value {
	if !a.has {
		return Null
	}
	return a.best
}

// varAcc computes sample variance (and stddev) via Welford's online
// algorithm for numerical stability.
type varAcc struct {
	arg   sqlparse.Expr
	isStd bool
	n     int64
	mean  float64
	m2    float64
}

func (a *varAcc) add(ctx *evalCtx) error {
	v, err := ctx.eval(a.arg)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	f, ok := v.AsFloat()
	if !ok {
		return fmt.Errorf("engine: VARIANCE over non-numeric value %s", v.K)
	}
	a.n++
	d := f - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (f - a.mean)
	return nil
}

func (a *varAcc) result() Value {
	if a.n < 2 {
		if a.n == 1 {
			return NewFloat(0)
		}
		return Null
	}
	v := a.m2 / float64(a.n-1)
	if a.isStd {
		return NewFloat(math.Sqrt(v))
	}
	return NewFloat(v)
}

// intervalAcc implements Aqua's error-column pseudo-aggregates
// SUM_ERROR(v, sf, g1…gk), AVG_ERROR(v, sf, g1…gk) and
// COUNT_ERROR(sf, g1…gk): the half-width, at
// interval.DefaultConfidence, of the group's expansion estimate. Rows
// are keyed into strata by the stratum columns g1…gk — the synopsis's
// full grouping, which the rewriter passes — and the strata fold into
// the group's moments exactly as estimate.Finalize's do. Only rows the
// engine sees exist here, so a stratum a WHERE clause empties leaves no
// zero-contribution term.
type intervalAcc struct {
	name   string
	val    sqlparse.Expr // nil for COUNT_ERROR, where every row counts once
	sf     sqlparse.Expr
	cols   []sqlparse.Expr
	strata map[string]*interval.Stratum
	kb     []byte // reused stratum-key scratch
}

func newIntervalAcc(f *sqlparse.FuncCall) (aggregator, error) {
	minArgs, want := 3, "(value, scalefactor, stratum columns...)"
	if f.Name == "count_error" {
		minArgs, want = 2, "(scalefactor, stratum columns...)"
	}
	if len(f.Args) < minArgs {
		return nil, fmt.Errorf("engine: %s expects %s", strings.ToUpper(f.Name), want)
	}
	a := &intervalAcc{name: f.Name, strata: make(map[string]*interval.Stratum)}
	if f.Name != "count_error" {
		a.val = f.Args[0]
	}
	a.sf, a.cols = f.Args[minArgs-2], f.Args[minArgs-1:]
	return a, nil
}

func (a *intervalAcc) add(ctx *evalCtx) error {
	v := 1.0
	if a.val != nil {
		x, err := ctx.eval(a.val)
		if err != nil {
			return err
		}
		f, ok := x.AsFloat()
		if !ok {
			return nil
		}
		v = f
	}
	sfv, err := ctx.eval(a.sf)
	if err != nil {
		return err
	}
	sf, ok := sfv.AsFloat()
	if !ok {
		return nil
	}
	if sf < 1 {
		sf = 1
	}
	a.kb = a.kb[:0]
	for _, c := range a.cols {
		cv, err := ctx.eval(c)
		if err != nil {
			return err
		}
		a.kb = cv.AppendGroupKey(a.kb)
	}
	st := a.strata[string(a.kb)]
	if st == nil {
		// Every row of a synopsis stratum carries the same sf.
		s := interval.NewStratum(sf)
		st = &s
		a.strata[string(a.kb)] = st
	}
	st.Add(v)
	return nil
}

func (a *intervalAcc) result() Value {
	if len(a.strata) == 0 {
		return Null
	}
	// Fold in sorted key order: map order would make the last bits of
	// the float sums vary from run to run.
	keys := make([]string, 0, len(a.strata))
	for k := range a.strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	m := interval.NewMoments()
	for _, k := range keys {
		m.AddStratum(a.strata[k])
	}
	var bound float64
	switch a.name {
	case "sum_error":
		_, bound = m.Sum(interval.DefaultConfidence)
	case "count_error":
		_, bound = m.Count(interval.DefaultConfidence)
	default:
		var ok bool
		if _, bound, ok = m.Avg(interval.DefaultConfidence); !ok {
			return Null
		}
	}
	return NewFloat(bound)
}
