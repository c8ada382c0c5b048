package engine

// Vectorized hash-aggregation kernels. Each vecAgg holds one state
// entry per group (struct-of-arrays) and replicates its row-engine
// accumulator's arithmetic exactly: same accumulation order (chunks are
// processed in row order, selection vectors ascend), same dual
// float/int SUM lanes, same Welford updates, same strict MIN/MAX
// comparisons that keep the first of equal values.

import (
	"math"

	"github.com/approxdb/congress/internal/sqlparse"
)

// vecAgg is one aggregate expression's vectorized accumulator.
type vecAgg interface {
	// push appends zero state for a newly created group.
	push()
	// update folds the selected rows of chunk [lo,hi) into group state.
	// sel holds chunk-relative row indices (ascending); gids is the
	// parallel group ordinal per selected row.
	update(lo, hi int, sel, gids []int32)
	// result materializes group g's aggregate Value, matching the row
	// accumulator's result() bit for bit.
	result(g int) Value
}

type countStarAgg struct {
	n []int64
}

func (a *countStarAgg) push() { a.n = append(a.n, 0) }

func (a *countStarAgg) update(lo, hi int, sel, gids []int32) {
	for _, g := range gids {
		a.n[g]++
	}
}

func (a *countStarAgg) result(g int) Value { return NewInt(a.n[g]) }

type countAgg struct {
	src nullLaner
	n   []int64
}

func (a *countAgg) push() { a.n = append(a.n, 0) }

func (a *countAgg) update(lo, hi int, sel, gids []int32) {
	null := a.src.nullLane(lo, hi)
	if null == nil {
		for _, g := range gids {
			a.n[g]++
		}
		return
	}
	for k, i := range sel {
		if !null[i] {
			a.n[gids[k]]++
		}
	}
}

func (a *countAgg) result(g int) Value { return NewInt(a.n[g]) }

// sumAgg implements SUM and AVG with sumAcc's dual accumulation: the
// float sum in row order plus the int sum; the arg's static kind plays
// sumAcc's anyF role (uniform column kinds make it per-group constant).
type sumAgg struct {
	arg    numNode
	isAvg  bool
	argInt bool // arg.kind() == KindInt -> integral SUM result
	sum    []float64
	intSum []int64
	n      []int64
}

func (a *sumAgg) push() {
	a.sum = append(a.sum, 0)
	a.intSum = append(a.intSum, 0)
	a.n = append(a.n, 0)
}

func (a *sumAgg) update(lo, hi int, sel, gids []int32) {
	ch := a.arg.eval(lo, hi)
	if ch.null == nil {
		for k, i := range sel {
			g := gids[k]
			a.n[g]++
			a.sum[g] += ch.floats[i]
			if a.argInt {
				a.intSum[g] += ch.ints[i]
			}
		}
		return
	}
	for k, i := range sel {
		if ch.null[i] {
			continue
		}
		g := gids[k]
		a.n[g]++
		a.sum[g] += ch.floats[i]
		if a.argInt {
			a.intSum[g] += ch.ints[i]
		}
	}
}

func (a *sumAgg) result(g int) Value {
	if a.n[g] == 0 {
		return Null
	}
	if a.isAvg {
		return NewFloat(a.sum[g] / float64(a.n[g]))
	}
	if a.argInt {
		return NewInt(a.intSum[g])
	}
	return NewFloat(a.sum[g])
}

// minMaxColAgg implements MIN/MAX over a bare column by remembering the
// winning row index, so result() rematerializes the original Value
// (kind and bits included) exactly as minMaxAcc keeps the first-seen
// best Value. Works for every uniform column kind including strings.
type minMaxColAgg struct {
	c     *colData
	isMax bool
	best  []int32 // absolute row index of the current best; -1 = none
}

func (a *minMaxColAgg) push() { a.best = append(a.best, -1) }

func (a *minMaxColAgg) update(lo, hi int, sel, gids []int32) {
	c := a.c
	if c.kind == KindNull {
		return // all-NULL column: aggregate stays NULL
	}
	for k, i := range sel {
		abs := lo + int(i)
		if c.nulls.get(abs) {
			continue
		}
		g := gids[k]
		cur := a.best[g]
		if cur < 0 {
			a.best[g] = int32(abs)
			continue
		}
		var cmp int
		if c.kind == KindString {
			sv, sb := c.dict[c.codes[abs]], c.dict[c.codes[cur]]
			switch {
			case sv < sb:
				cmp = -1
			case sv > sb:
				cmp = 1
			}
		} else {
			fv, fb := c.floats[abs], c.floats[cur]
			switch {
			case fv < fb:
				cmp = -1
			case fv > fb:
				cmp = 1
			}
		}
		if (a.isMax && cmp > 0) || (!a.isMax && cmp < 0) {
			a.best[g] = int32(abs)
		}
	}
}

func (a *minMaxColAgg) result(g int) Value {
	if a.best[g] < 0 {
		return Null
	}
	return a.c.valueAt(int(a.best[g]))
}

// minMaxNumAgg implements MIN/MAX over a computed numeric expression
// (result kinds are only Int or Float). Comparisons use the same
// NaN-keeps-first ordering as Value.Compare.
type minMaxNumAgg struct {
	arg    numNode
	isMax  bool
	argInt bool
	has    []bool
	bi     []int64
	bf     []float64
}

func (a *minMaxNumAgg) push() {
	a.has = append(a.has, false)
	a.bi = append(a.bi, 0)
	a.bf = append(a.bf, 0)
}

func (a *minMaxNumAgg) update(lo, hi int, sel, gids []int32) {
	ch := a.arg.eval(lo, hi)
	for k, i := range sel {
		if ch.null != nil && ch.null[i] {
			continue
		}
		g := gids[k]
		f := ch.floats[i]
		if !a.has[g] {
			a.has[g] = true
			a.bf[g] = f
			if a.argInt {
				a.bi[g] = ch.ints[i]
			}
			continue
		}
		if (a.isMax && f > a.bf[g]) || (!a.isMax && f < a.bf[g]) {
			a.bf[g] = f
			if a.argInt {
				a.bi[g] = ch.ints[i]
			}
		}
	}
}

func (a *minMaxNumAgg) result(g int) Value {
	if !a.has[g] {
		return Null
	}
	if a.argInt {
		return NewInt(a.bi[g])
	}
	return NewFloat(a.bf[g])
}

// varAgg implements VARIANCE/STDDEV with varAcc's Welford recurrence in
// row order.
type varAgg struct {
	arg   numNode
	isStd bool
	n     []int64
	mean  []float64
	m2    []float64
}

func (a *varAgg) push() {
	a.n = append(a.n, 0)
	a.mean = append(a.mean, 0)
	a.m2 = append(a.m2, 0)
}

func (a *varAgg) update(lo, hi int, sel, gids []int32) {
	ch := a.arg.eval(lo, hi)
	for k, i := range sel {
		if ch.null != nil && ch.null[i] {
			continue
		}
		g := gids[k]
		f := ch.floats[i]
		a.n[g]++
		d := f - a.mean[g]
		a.mean[g] += d / float64(a.n[g])
		a.m2[g] += d * (f - a.mean[g])
	}
}

func (a *varAgg) result(g int) Value {
	n := a.n[g]
	if n < 2 {
		if n == 1 {
			return NewFloat(0)
		}
		return Null
	}
	v := a.m2[g] / float64(n-1)
	if a.isStd {
		return NewFloat(math.Sqrt(v))
	}
	return NewFloat(v)
}

// compileAgg builds the vectorized accumulator for one aggregate call,
// declining whatever newAggregator would reject (so the row engine
// reports the identical error) plus the shapes the kernels do not
// cover (COUNT DISTINCT, non-numeric computed args, and the *_error
// pseudo-aggregates, which run on the row engine only).
func (vc *vecCompiler) compileAgg(f *sqlparse.FuncCall) (vecAgg, bool) {
	switch f.Name {
	case "count":
		if f.Star {
			return &countStarAgg{}, true
		}
		if len(f.Args) != 1 || f.Distinct {
			return nil, false
		}
		src, ok := vc.compileNullLane(f.Args[0])
		if !ok {
			return nil, false
		}
		return &countAgg{src: src}, true
	case "sum", "avg":
		if len(f.Args) != 1 {
			return nil, false
		}
		arg, ok := vc.compileNum(f.Args[0])
		if !ok {
			return nil, false
		}
		return &sumAgg{arg: arg, isAvg: f.Name == "avg", argInt: arg.kind() == KindInt}, true
	case "min", "max":
		if len(f.Args) != 1 {
			return nil, false
		}
		isMax := f.Name == "max"
		if cr, isCol := f.Args[0].(*sqlparse.ColumnRef); isCol {
			c, ok := vc.col(cr)
			if !ok {
				return nil, false
			}
			return &minMaxColAgg{c: c, isMax: isMax}, true
		}
		arg, ok := vc.compileNum(f.Args[0])
		if !ok {
			return nil, false
		}
		switch arg.kind() {
		case KindInt, KindFloat, KindNull:
			return &minMaxNumAgg{arg: arg, isMax: isMax, argInt: arg.kind() == KindInt}, true
		}
		// Const date/bool args would need kind-preserving
		// materialization; decline.
		return nil, false
	case "variance", "stddev":
		if len(f.Args) != 1 {
			return nil, false
		}
		arg, ok := vc.compileNum(f.Args[0])
		if !ok {
			return nil, false
		}
		return &varAgg{arg: arg, isStd: f.Name == "stddev"}, true
	}
	return nil, false
}
