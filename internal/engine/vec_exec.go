package engine

// The vectorized executor: a planner gate that routes eligible
// single-table scan-filter-aggregate (and scan-filter-project)
// statements through columnar kernels, with the row engine as the
// fallback for everything else. Context cancellation is polled once per
// vecChunk instead of once per pollEvery rows.

import (
	"context"
	"math"
	"sync/atomic"

	"github.com/approxdb/congress/internal/sqlparse"
)

var (
	vecEnabled    atomic.Bool
	vecExecs      atomic.Int64
	fallbackExecs atomic.Int64
)

func init() { vecEnabled.Store(true) }

// SetVectorized toggles the vectorized execution path process-wide and
// returns the previous setting. Used by benchmarks and the differential
// test to force both engines over identical statements.
func SetVectorized(on bool) bool { return vecEnabled.Swap(on) }

// ExecCounts returns the process-wide counts of statements executed by
// the vectorized path and by the row-engine fallback (statements with a
// FROM clause only; recursively executed derived tables count each
// inner statement). Exposed as congress_engine_vectorized_total and
// congress_engine_fallback_total telemetry.
func ExecCounts() (vectorized, fallback int64) {
	return vecExecs.Load(), fallbackExecs.Load()
}

// execVectorized attempts the columnar path for stmt. handled=false
// means the statement was declined before any work that could diverge
// from the row engine; the caller then runs the untouched row path.
// Once handled=true is returned the result (or error) is final.
func execVectorized(goCtx context.Context, cat *Catalog, stmt *sqlparse.SelectStmt) (res *Result, handled bool, err error) {
	if len(stmt.From) != 1 || len(stmt.Joins) > 0 || stmt.From[0].Subquery != nil || stmt.Distinct {
		return nil, false, nil
	}
	ref := stmt.From[0]
	rel, ok := cat.Lookup(ref.Name)
	if !ok {
		return nil, false, nil // fallback reports ErrUnknownTable
	}
	b := rel.Batch()
	if b.ragged || b.n == 0 {
		return nil, false, nil
	}
	qual := ref.Alias
	if qual == "" {
		qual = ref.Name
	}
	env := newRowEnv()
	for _, c := range rel.Schema.Cols {
		env.add(qual, c.Name)
	}
	p := buildProjection(stmt, env)

	if stmt.Where != nil && sqlparse.ContainsAggregate(stmt.Where) {
		return nil, false, nil // fallback raises "aggregate not allowed in WHERE"
	}
	vc := &vecCompiler{b: b, env: env}
	var pred boolNode
	if stmt.Where != nil {
		pred, ok = vc.compilePred(stmt.Where)
		if !ok {
			return nil, false, nil
		}
	}
	if p.hasAgg {
		return vc.runAggregate(goCtx, stmt, p, pred)
	}
	return vc.runScan(goCtx, stmt, p, pred)
}

// appendVecKey appends row's fixed-width group-key fragment for column
// c: a presence byte, then the value payload (width fixed per column).
// Because every column's payload width is statically known, composite
// keys are prefix-free and partition rows exactly as the row engine's
// concatenated GroupKey strings do (NUL-bearing string dictionaries are
// declined before we get here).
func appendVecKey(dst []byte, c *colData, row int) []byte {
	if c.kind == KindNull || c.nulls.get(row) {
		return append(dst, 0)
	}
	switch c.kind {
	case KindString:
		code := uint32(c.codes[row])
		return append(dst, 1, byte(code), byte(code>>8), byte(code>>16), byte(code>>24))
	case KindFloat:
		bits := math.Float64bits(c.floats[row])
		return append(dst, 1, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	default: // Int, Date, Bool
		u := uint64(c.ints[row])
		return append(dst, 1, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
}

// buildSelection fills sel with the chunk-relative indices of rows
// passing pred (all rows when pred is nil).
func buildSelection(pred boolNode, lo, hi int, boolBuf []bool, sel []int32) []int32 {
	n := hi - lo
	sel = sel[:0]
	if pred == nil {
		for i := 0; i < n; i++ {
			sel = append(sel, int32(i))
		}
		return sel
	}
	out := boolBuf[:n]
	pred.eval(lo, hi, out)
	for i, pass := range out {
		if pass {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// runAggregate executes the vectorized scan-filter-aggregate path:
// chunked selection, fixed-width group-key hashing with interned keys,
// struct-of-arrays accumulators, then the shared emitGroups /
// assembleResult tail so per-group output semantics are the row
// engine's own.
func (vc *vecCompiler) runAggregate(goCtx context.Context, stmt *sqlparse.SelectStmt, p projPlan, pred boolNode) (*Result, bool, error) {
	aggExprs := collectAggExprs(p.items, stmt.Having, p.orderBy)
	aggs := make([]vecAgg, len(aggExprs))
	for i, f := range aggExprs {
		a, ok := vc.compileAgg(f)
		if !ok {
			return nil, false, nil
		}
		aggs[i] = a
	}
	groupCols := make([]*colData, len(p.groupBy))
	for i, g := range p.groupBy {
		cr, isCol := g.(*sqlparse.ColumnRef)
		if !isCol {
			return nil, false, nil // expression group keys stay on the row path
		}
		c, ok := vc.col(cr)
		if !ok {
			return nil, false, nil
		}
		if c.kind == KindString && c.dictNUL {
			// NUL bytes inside values make the row engine's concatenated
			// keys ambiguous relative to our fixed-width ones; decline.
			return nil, false, nil
		}
		groupCols[i] = c
	}

	b := vc.b
	groups := make(map[string]int32)
	var repRows []int32 // absolute row index of each group's representative
	var kb []byte
	sel := make([]int32, 0, vecChunk)
	gids := make([]int32, 0, vecChunk)
	var boolBuf []bool
	if pred != nil {
		boolBuf = make([]bool, vecChunk)
	}
	for lo := 0; lo < b.n; lo += vecChunk {
		if err := goCtx.Err(); err != nil {
			return nil, true, err
		}
		hi := lo + vecChunk
		if hi > b.n {
			hi = b.n
		}
		sel = buildSelection(pred, lo, hi, boolBuf, sel)
		if len(sel) == 0 {
			continue
		}
		gids = gids[:0]
		if len(groupCols) == 0 {
			if len(repRows) == 0 {
				repRows = append(repRows, int32(lo)+sel[0])
				for _, a := range aggs {
					a.push()
				}
			}
			for range sel {
				gids = append(gids, 0)
			}
		} else {
			for _, i := range sel {
				abs := lo + int(i)
				kb = kb[:0]
				for _, c := range groupCols {
					kb = appendVecKey(kb, c, abs)
				}
				gid, ok := groups[string(kb)] // non-allocating lookup
				if !ok {
					gid = int32(len(repRows))
					groups[string(kb)] = gid // interns the key once per group
					repRows = append(repRows, int32(abs))
					for _, a := range aggs {
						a.push()
					}
				}
				gids = append(gids, gid)
			}
		}
		for _, a := range aggs {
			a.update(lo, hi, sel, gids)
		}
	}

	// Global aggregate over zero passing rows: one synthesized empty
	// group with no representative row.
	if len(repRows) == 0 && len(groupCols) == 0 {
		repRows = append(repRows, -1)
		for _, a := range aggs {
			a.push()
		}
	}

	results := make([]groupResult, len(repRows))
	for g := range repRows {
		vals := make([]Value, len(aggs))
		for i, a := range aggs {
			vals[i] = a.result(g)
		}
		var rep Row
		if repRows[g] >= 0 {
			rep = b.rows[repRows[g]]
		}
		results[g] = groupResult{rep: rep, vals: vals}
	}
	rows, err := emitGroups(vc.env, aggExprs, p.items, stmt.Having, p.orderBy, results)
	if err != nil {
		return nil, true, err
	}
	return assembleResult(stmt, p, rows), true, nil
}

// valProducer materializes one select-list or ORDER BY expression for
// passing rows: load is called once per chunk, value once per selected
// row (chunk-relative index).
type valProducer interface {
	load(lo, hi int)
	value(rel int) (Value, error)
}

// rowColProducer serves a bare column reference straight from the boxed
// row snapshot: exact kind and bits, any column kind including mixed.
type rowColProducer struct {
	rows []Row
	idx  int
	lo   int
}

func (p *rowColProducer) load(lo, hi int) { p.lo = lo }

func (p *rowColProducer) value(rel int) (Value, error) {
	return p.rows[p.lo+rel][p.idx], nil
}

// numProducer materializes a compiled numeric expression (result kinds
// are only Int, Float, or always-NULL).
type numProducer struct {
	n  numNode
	k  Kind
	ch numChunk
}

func (p *numProducer) load(lo, hi int) { p.ch = p.n.eval(lo, hi) }

func (p *numProducer) value(rel int) (Value, error) {
	if p.ch.null != nil && p.ch.null[rel] {
		return Null, nil
	}
	switch p.k {
	case KindInt:
		return NewInt(p.ch.ints[rel]), nil
	case KindFloat:
		return NewFloat(p.ch.floats[rel]), nil
	default:
		return Null, nil
	}
}

// evalProducer falls back to the row engine's evalCtx for expressions
// the kernels do not cover (scalar functions, CASE, string ops). The
// filter still runs vectorized; only the per-passing-row materialization
// is interpreted, and errors surface exactly as the row engine's.
type evalProducer struct {
	ec   *evalCtx
	expr sqlparse.Expr
	rows []Row
	lo   int
}

func (p *evalProducer) load(lo, hi int) { p.lo = lo }

func (p *evalProducer) value(rel int) (Value, error) {
	p.ec.row = p.rows[p.lo+rel]
	return p.ec.eval(p.expr)
}

func (vc *vecCompiler) compileProducer(e sqlparse.Expr, ec *evalCtx) valProducer {
	if cr, isCol := e.(*sqlparse.ColumnRef); isCol {
		if idx, err := vc.env.resolve(cr.Table, cr.Name); err == nil {
			return &rowColProducer{rows: vc.b.rows, idx: idx}
		}
		// Unresolvable references error per row in the row engine;
		// evalProducer reproduces the identical error.
	}
	if num, ok := vc.compileNum(e); ok {
		switch num.kind() {
		case KindInt, KindFloat, KindNull:
			return &numProducer{n: num, k: num.kind()}
		}
	}
	return &evalProducer{ec: ec, expr: e, rows: vc.b.rows}
}

// runScan executes the vectorized scan-filter-project path for
// non-aggregating statements.
func (vc *vecCompiler) runScan(goCtx context.Context, stmt *sqlparse.SelectStmt, p projPlan, pred boolNode) (*Result, bool, error) {
	ec := &evalCtx{env: vc.env}
	itemProds := make([]valProducer, len(p.items))
	for i, item := range p.items {
		itemProds[i] = vc.compileProducer(item.Expr, ec)
	}
	ordProds := make([]valProducer, len(p.orderBy))
	for i, o := range p.orderBy {
		ordProds[i] = vc.compileProducer(o.Expr, ec)
	}

	b := vc.b
	var rows []sortableRow
	sel := make([]int32, 0, vecChunk)
	var boolBuf []bool
	if pred != nil {
		boolBuf = make([]bool, vecChunk)
	}
	for lo := 0; lo < b.n; lo += vecChunk {
		if err := goCtx.Err(); err != nil {
			return nil, true, err
		}
		hi := lo + vecChunk
		if hi > b.n {
			hi = b.n
		}
		sel = buildSelection(pred, lo, hi, boolBuf, sel)
		if len(sel) == 0 {
			continue
		}
		for _, pr := range itemProds {
			pr.load(lo, hi)
		}
		for _, pr := range ordProds {
			pr.load(lo, hi)
		}
		for _, i := range sel {
			out := make(Row, len(itemProds))
			for ci, pr := range itemProds {
				v, err := pr.value(int(i))
				if err != nil {
					return nil, true, err
				}
				out[ci] = v
			}
			var keys []Value
			if len(ordProds) > 0 {
				keys = make([]Value, len(ordProds))
				for ki, pr := range ordProds {
					v, err := pr.value(int(i))
					if err != nil {
						return nil, true, err
					}
					keys[ki] = v
				}
			}
			rows = append(rows, sortableRow{row: out, keys: keys})
		}
	}
	return assembleResult(stmt, p, rows), true, nil
}
