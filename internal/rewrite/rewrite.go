// Package rewrite implements the four query-rewriting strategies of
// Section 5: Integrated, Nested-integrated, Normalized, and
// Key-normalized. Each takes a user query over the base relation and
// produces an equivalent query over the sample relation(s) with the
// aggregate expressions scaled by per-stratum scale factors, so the
// back-end engine returns statistically unbiased approximate answers.
package rewrite

import (
	"fmt"
	"strings"

	"github.com/approxdb/congress/internal/sqlparse"
)

// Strategy selects the rewriting technique.
type Strategy int

// The four rewriting strategies of Section 5.2.
const (
	// Integrated stores the ScaleFactor with every sample tuple and
	// multiplies per tuple (Figure 8).
	Integrated Strategy = iota
	// NestedIntegrated aggregates per (group, SF) first and multiplies
	// once per group (Figure 11).
	NestedIntegrated
	// Normalized stores ScaleFactors in a separate AuxRel joined on the
	// grouping columns (Figure 9).
	Normalized
	// KeyNormalized joins on a compact group identifier instead of the
	// grouping columns (Figure 10).
	KeyNormalized
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Integrated:
		return "Integrated"
	case NestedIntegrated:
		return "Nested-integrated"
	case Normalized:
		return "Normalized"
	case KeyNormalized:
		return "Key-normalized"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all four rewriting strategies in presentation order.
var Strategies = []Strategy{Integrated, NestedIntegrated, Normalized, KeyNormalized}

// Tables names the synopsis relations a rewrite targets.
type Tables struct {
	// Base is the base relation name the user query references.
	Base string
	// Sample is the sample relation: the base columns plus the sf column
	// (read by Integrated/NestedIntegrated) and the gid column (joined on
	// by KeyNormalized). Normalized and KeyNormalized qualify every
	// column with an alias, so the sample's sf column never meets the
	// aux relation's.
	Sample string
	// Aux is the auxiliary scale-factor relation for Normalized
	// (grouping columns + sf) and KeyNormalized (gid + sf).
	Aux string
	// GroupCols is the full grouping attribute set G of the synopsis;
	// the Normalized join must match on all of G because scale factors
	// are per finest group.
	GroupCols []string
	// WithErrorColumns appends an Aqua error-bound pseudo-aggregate for
	// each rewritten aggregate (Figure 2's sum_error column). Supported
	// for Integrated only, and requires GroupCols: the error aggregates
	// key their strata by the full grouping.
	WithErrorColumns bool
}

// The scale-factor and group-id columns of the sample and aux relations
// (see estimate.NewStrata).
const (
	sfCol  = "sf"
	gidCol = "gid"
)

// Rewrite transforms a single-table aggregate query over t.Base into a
// query over the sample relations using the given strategy. The input
// statement is not modified.
func Rewrite(stmt *sqlparse.SelectStmt, strat Strategy, t Tables) (*sqlparse.SelectStmt, error) {
	if err := checkRewritable(stmt, t); err != nil {
		return nil, err
	}
	switch strat {
	case Integrated:
		return rewriteIntegrated(stmt, t)
	case NestedIntegrated:
		return rewriteNestedIntegrated(stmt, t)
	case Normalized:
		return rewriteNormalized(stmt, t, false)
	case KeyNormalized:
		return rewriteNormalized(stmt, t, true)
	default:
		return nil, fmt.Errorf("rewrite: unknown strategy %v", strat)
	}
}

// checkRewritable validates the query shape: single reference to the
// base table, no joins, and no DISTINCT aggregates (which cannot be
// scaled).
func checkRewritable(stmt *sqlparse.SelectStmt, t Tables) error {
	if len(stmt.From) != 1 || stmt.From[0].Subquery != nil || len(stmt.Joins) != 0 {
		return fmt.Errorf("rewrite: query must select from exactly the base relation %q", t.Base)
	}
	if !strings.EqualFold(stmt.From[0].Name, t.Base) {
		return fmt.Errorf("rewrite: query references %q, synopsis covers %q", stmt.From[0].Name, t.Base)
	}
	var err error
	visit := func(e sqlparse.Expr) {
		sqlparse.Walk(e, func(n sqlparse.Expr) bool {
			if f, ok := n.(*sqlparse.FuncCall); ok && sqlparse.AggregateFuncs[f.Name] {
				if f.Distinct && err == nil {
					err = fmt.Errorf("rewrite: DISTINCT aggregates cannot be answered from a sample")
				}
			}
			return true
		})
	}
	for _, item := range stmt.Select {
		if item.Star {
			if err == nil {
				err = fmt.Errorf("rewrite: SELECT * is not an aggregate query")
			}
			continue
		}
		visit(item.Expr)
	}
	visit(stmt.Having)
	return err
}

// cloneStmt shallow-copies the statement with fresh slices so rewrites
// never alias the caller's AST.
func cloneStmt(stmt *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	out := *stmt
	out.Select = append([]sqlparse.SelectItem(nil), stmt.Select...)
	out.From = append([]sqlparse.TableRef(nil), stmt.From...)
	out.Joins = append([]sqlparse.JoinClause(nil), stmt.Joins...)
	out.GroupBy = append([]sqlparse.Expr(nil), stmt.GroupBy...)
	out.OrderBy = append([]sqlparse.OrderItem(nil), stmt.OrderBy...)
	return &out
}

// col builds an unqualified column reference.
func col(name string) *sqlparse.ColumnRef { return &sqlparse.ColumnRef{Name: name} }

// qcol builds a qualified column reference.
func qcol(table, name string) *sqlparse.ColumnRef {
	return &sqlparse.ColumnRef{Table: table, Name: name}
}

func mul(a, b sqlparse.Expr) sqlparse.Expr { return &sqlparse.BinaryExpr{Op: "*", Left: a, Right: b} }
func div(a, b sqlparse.Expr) sqlparse.Expr { return &sqlparse.BinaryExpr{Op: "/", Left: a, Right: b} }

func sum(arg sqlparse.Expr) *sqlparse.FuncCall {
	return &sqlparse.FuncCall{Name: "sum", Args: []sqlparse.Expr{arg}}
}

// integratedAgg scales one aggregate for the Integrated family, given a
// factory for the SF column reference (unqualified for Integrated,
// aux-qualified for Normalized).
func integratedAgg(f *sqlparse.FuncCall, sf func() sqlparse.Expr) (sqlparse.Expr, error) {
	switch f.Name {
	case "sum":
		return sum(mul(f.Args[0], sf())), nil
	case "count":
		// COUNT(*) and COUNT(col) both scale to SUM(SF); for COUNT(col)
		// NULLs should be excluded, but sampled synopses never store
		// NULL grouping/aggregate values, so the simple form suffices.
		return sum(sf()), nil
	case "avg":
		return div(sum(mul(f.Args[0], sf())), sum(sf())), nil
	case "min", "max":
		// Extremes pass through unscaled: the sample's min/max is the
		// natural (biased) estimator.
		return f, nil
	default:
		return nil, fmt.Errorf("rewrite: aggregate %s cannot be rewritten over a sample", strings.ToUpper(f.Name))
	}
}

// errorAggFor builds the Aqua error-bound companion aggregate for f, or
// nil if none applies: sum_error(v, sf, G…), avg_error(v, sf, G…) or
// count_error(sf, G…). The synopsis's full grouping G, which every
// sample row carries, names each row's stratum.
func errorAggFor(f *sqlparse.FuncCall, t Tables) sqlparse.Expr {
	var args []sqlparse.Expr
	switch f.Name {
	case "sum", "avg":
		args = []sqlparse.Expr{f.Args[0], col(sfCol)}
	case "count":
		args = []sqlparse.Expr{col(sfCol)}
	default:
		return nil
	}
	for _, g := range t.GroupCols {
		args = append(args, col(g))
	}
	return &sqlparse.FuncCall{Name: f.Name + "_error", Args: args}
}

// sameCol is the identity column mapping for mapExpr.
func sameCol(c *sqlparse.ColumnRef) sqlparse.Expr { return c }

// rewriteIntegrated implements Figure 8 (and, with WithErrorColumns,
// Figure 2's error-annotated form).
func rewriteIntegrated(stmt *sqlparse.SelectStmt, t Tables) (*sqlparse.SelectStmt, error) {
	if t.WithErrorColumns && len(t.GroupCols) == 0 {
		return nil, fmt.Errorf("rewrite: error columns need the synopsis grouping columns")
	}
	out := cloneStmt(stmt)
	out.From = []sqlparse.TableRef{{Name: t.Sample}}
	sf := func() sqlparse.Expr { return col(sfCol) }

	var errorItems []sqlparse.SelectItem
	for i, item := range out.Select {
		e, err := mapExpr(item.Expr, sameCol, func(f *sqlparse.FuncCall) (sqlparse.Expr, error) {
			if t.WithErrorColumns {
				if ea := errorAggFor(f, t); ea != nil {
					errorItems = append(errorItems, sqlparse.SelectItem{
						Expr:  ea,
						Alias: fmt.Sprintf("error%d", len(errorItems)+1),
					})
				}
			}
			return integratedAgg(f, sf)
		})
		if err != nil {
			return nil, err
		}
		out.Select[i] = sqlparse.SelectItem{Expr: e, Alias: item.Alias}
	}
	out.Select = append(out.Select, errorItems...)
	if out.Having != nil {
		h, err := mapExpr(out.Having, sameCol, func(f *sqlparse.FuncCall) (sqlparse.Expr, error) {
			return integratedAgg(f, sf)
		})
		if err != nil {
			return nil, err
		}
		out.Having = h
	}
	for i, o := range out.OrderBy {
		e, err := mapExpr(o.Expr, sameCol, func(f *sqlparse.FuncCall) (sqlparse.Expr, error) {
			return integratedAgg(f, sf)
		})
		if err != nil {
			return nil, err
		}
		out.OrderBy[i] = sqlparse.OrderItem{Expr: e, Desc: o.Desc}
	}
	return out, nil
}

// rewriteNestedIntegrated implements Figure 11/13: an inner query
// aggregates per (grouping, SF); the outer query applies the scale
// factor once per group.
func rewriteNestedIntegrated(stmt *sqlparse.SelectStmt, t Tables) (*sqlparse.SelectStmt, error) {
	inner := &sqlparse.SelectStmt{Limit: -1}
	inner.From = []sqlparse.TableRef{{Name: t.Sample}}
	inner.Where = stmt.Where
	for _, g := range stmt.GroupBy {
		gc, ok := g.(*sqlparse.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("rewrite: nested-integrated requires plain column group-by keys, got %s", g)
		}
		inner.GroupBy = append(inner.GroupBy, col(gc.Name))
		inner.Select = append(inner.Select, sqlparse.SelectItem{Expr: col(gc.Name)})
	}
	inner.GroupBy = append(inner.GroupBy, col(sfCol))
	inner.Select = append(inner.Select, sqlparse.SelectItem{Expr: col(sfCol)})

	// Allocate one inner partial aggregate per distinct partial
	// expression, shared across outer references.
	partials := make(map[string]string) // partial expr rendering -> alias
	addPartial := func(e sqlparse.Expr) string {
		key := e.String()
		if alias, ok := partials[key]; ok {
			return alias
		}
		alias := fmt.Sprintf("p%d", len(partials))
		partials[key] = alias
		inner.Select = append(inner.Select, sqlparse.SelectItem{Expr: e, Alias: alias})
		return alias
	}

	outerAgg := func(f *sqlparse.FuncCall) (sqlparse.Expr, error) {
		switch f.Name {
		case "sum":
			alias := addPartial(sum(f.Args[0]))
			return sum(mul(col(alias), col(sfCol))), nil
		case "count":
			var inner *sqlparse.FuncCall
			if f.Star {
				inner = &sqlparse.FuncCall{Name: "count", Star: true}
			} else {
				inner = &sqlparse.FuncCall{Name: "count", Args: f.Args}
			}
			alias := addPartial(inner)
			return sum(mul(col(alias), col(sfCol))), nil
		case "avg":
			sAlias := addPartial(sum(f.Args[0]))
			cAlias := addPartial(&sqlparse.FuncCall{Name: "count", Star: true})
			return div(
				sum(mul(col(sAlias), col(sfCol))),
				sum(mul(col(cAlias), col(sfCol))),
			), nil
		case "min", "max":
			alias := addPartial(&sqlparse.FuncCall{Name: f.Name, Args: f.Args})
			return &sqlparse.FuncCall{Name: f.Name, Args: []sqlparse.Expr{col(alias)}}, nil
		default:
			return nil, fmt.Errorf("rewrite: aggregate %s cannot be rewritten over a sample", strings.ToUpper(f.Name))
		}
	}

	outer := &sqlparse.SelectStmt{Limit: stmt.Limit, Offset: stmt.Offset, Distinct: stmt.Distinct}
	for _, g := range stmt.GroupBy {
		gc := g.(*sqlparse.ColumnRef)
		outer.GroupBy = append(outer.GroupBy, col(gc.Name))
	}
	for _, item := range stmt.Select {
		e, err := mapExpr(item.Expr, sameCol, outerAgg)
		if err != nil {
			return nil, err
		}
		outer.Select = append(outer.Select, sqlparse.SelectItem{Expr: e, Alias: item.Alias})
	}
	if stmt.Having != nil {
		h, err := mapExpr(stmt.Having, sameCol, outerAgg)
		if err != nil {
			return nil, err
		}
		outer.Having = h
	}
	for _, o := range stmt.OrderBy {
		e, err := mapExpr(o.Expr, sameCol, outerAgg)
		if err != nil {
			return nil, err
		}
		outer.OrderBy = append(outer.OrderBy, sqlparse.OrderItem{Expr: e, Desc: o.Desc})
	}
	outer.From = []sqlparse.TableRef{{Subquery: inner}}
	return outer, nil
}

// rewriteNormalized implements Figures 9 and 10: the sample relation is
// joined with the auxiliary scale-factor relation — on all grouping
// columns (Normalized) or on the group identifier (Key-normalized) —
// and aggregates are scaled by the aux SF.
func rewriteNormalized(stmt *sqlparse.SelectStmt, t Tables, byKey bool) (*sqlparse.SelectStmt, error) {
	const (
		sAlias = "s"
		xAlias = "x"
	)
	if t.Aux == "" {
		return nil, fmt.Errorf("rewrite: %s requires an aux relation", map[bool]string{false: "Normalized", true: "Key-normalized"}[byKey])
	}
	out := cloneStmt(stmt)
	out.From = []sqlparse.TableRef{
		{Name: t.Sample, Alias: sAlias},
		{Name: t.Aux, Alias: xAlias},
	}

	// Join condition.
	var join sqlparse.Expr
	if byKey {
		join = &sqlparse.BinaryExpr{Op: "=", Left: qcol(sAlias, gidCol), Right: qcol(xAlias, gidCol)}
	} else {
		if len(t.GroupCols) == 0 {
			return nil, fmt.Errorf("rewrite: Normalized requires the synopsis grouping columns")
		}
		for _, g := range t.GroupCols {
			eq := &sqlparse.BinaryExpr{Op: "=", Left: qcol(sAlias, g), Right: qcol(xAlias, g)}
			if join == nil {
				join = eq
			} else {
				join = &sqlparse.BinaryExpr{Op: "and", Left: join, Right: eq}
			}
		}
	}

	// Qualify every base-column reference with the sample alias, and
	// scale aggregates with the aux SF.
	sf := func() sqlparse.Expr { return qcol(xAlias, sfCol) }
	qualify := func(e sqlparse.Expr) (sqlparse.Expr, error) {
		return mapExpr(e, func(c *sqlparse.ColumnRef) sqlparse.Expr {
			if c.Table == "" {
				return qcol(sAlias, c.Name)
			}
			return c
		}, func(f *sqlparse.FuncCall) (sqlparse.Expr, error) {
			qualArgs := make([]sqlparse.Expr, len(f.Args))
			for i, a := range f.Args {
				qa, err := mapExpr(a, func(c *sqlparse.ColumnRef) sqlparse.Expr {
					if c.Table == "" {
						return qcol(sAlias, c.Name)
					}
					return c
				}, nil)
				if err != nil {
					return nil, err
				}
				qualArgs[i] = qa
			}
			qf := &sqlparse.FuncCall{Name: f.Name, Args: qualArgs, Star: f.Star}
			return integratedAgg(qf, sf)
		})
	}

	for i, item := range out.Select {
		e, err := qualify(item.Expr)
		if err != nil {
			return nil, err
		}
		out.Select[i] = sqlparse.SelectItem{Expr: e, Alias: item.Alias}
	}
	if out.Where != nil {
		w, err := qualify(out.Where)
		if err != nil {
			return nil, err
		}
		out.Where = &sqlparse.BinaryExpr{Op: "and", Left: join, Right: w}
	} else {
		out.Where = join
	}
	for i, g := range out.GroupBy {
		e, err := qualify(g)
		if err != nil {
			return nil, err
		}
		out.GroupBy[i] = e
	}
	if out.Having != nil {
		h, err := qualify(out.Having)
		if err != nil {
			return nil, err
		}
		out.Having = h
	}
	for i, o := range out.OrderBy {
		e, err := qualify(o.Expr)
		if err != nil {
			return nil, err
		}
		out.OrderBy[i] = sqlparse.OrderItem{Expr: e, Desc: o.Desc}
	}
	return out, nil
}

// mapExpr rebuilds an expression, applying colFn to every column
// reference outside aggregates and aggFn to aggregate calls (when aggFn
// is nil, aggregates are descended into like any other function and
// their column refs mapped with colFn).
func mapExpr(e sqlparse.Expr, colFn func(*sqlparse.ColumnRef) sqlparse.Expr, aggFn func(*sqlparse.FuncCall) (sqlparse.Expr, error)) (sqlparse.Expr, error) {
	switch n := e.(type) {
	case nil:
		return nil, nil
	case *sqlparse.ColumnRef:
		return colFn(n), nil
	case *sqlparse.Literal:
		return n, nil
	case *sqlparse.FuncCall:
		if aggFn != nil && sqlparse.AggregateFuncs[n.Name] {
			return aggFn(n)
		}
		args := make([]sqlparse.Expr, len(n.Args))
		for i, a := range n.Args {
			ai, err := mapExpr(a, colFn, aggFn)
			if err != nil {
				return nil, err
			}
			args[i] = ai
		}
		return &sqlparse.FuncCall{Name: n.Name, Args: args, Star: n.Star, Distinct: n.Distinct}, nil
	case *sqlparse.BinaryExpr:
		l, err := mapExpr(n.Left, colFn, aggFn)
		if err != nil {
			return nil, err
		}
		r, err := mapExpr(n.Right, colFn, aggFn)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BinaryExpr{Op: n.Op, Left: l, Right: r}, nil
	case *sqlparse.UnaryExpr:
		in, err := mapExpr(n.Expr, colFn, aggFn)
		if err != nil {
			return nil, err
		}
		return &sqlparse.UnaryExpr{Op: n.Op, Expr: in}, nil
	case *sqlparse.BetweenExpr:
		x, err := mapExpr(n.Expr, colFn, aggFn)
		if err != nil {
			return nil, err
		}
		lo, err := mapExpr(n.Lo, colFn, aggFn)
		if err != nil {
			return nil, err
		}
		hi, err := mapExpr(n.Hi, colFn, aggFn)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BetweenExpr{Expr: x, Lo: lo, Hi: hi, Not: n.Not}, nil
	case *sqlparse.InExpr:
		x, err := mapExpr(n.Expr, colFn, aggFn)
		if err != nil {
			return nil, err
		}
		list := make([]sqlparse.Expr, len(n.List))
		for i, item := range n.List {
			li, err := mapExpr(item, colFn, aggFn)
			if err != nil {
				return nil, err
			}
			list[i] = li
		}
		return &sqlparse.InExpr{Expr: x, List: list, Not: n.Not}, nil
	case *sqlparse.IsNullExpr:
		x, err := mapExpr(n.Expr, colFn, aggFn)
		if err != nil {
			return nil, err
		}
		return &sqlparse.IsNullExpr{Expr: x, Not: n.Not}, nil
	case *sqlparse.CaseExpr:
		op, err := mapExpr(n.Operand, colFn, aggFn)
		if err != nil {
			return nil, err
		}
		whens := make([]sqlparse.WhenClause, len(n.Whens))
		for i, w := range n.Whens {
			c, err := mapExpr(w.Cond, colFn, aggFn)
			if err != nil {
				return nil, err
			}
			r, err := mapExpr(w.Result, colFn, aggFn)
			if err != nil {
				return nil, err
			}
			whens[i] = sqlparse.WhenClause{Cond: c, Result: r}
		}
		els, err := mapExpr(n.Else, colFn, aggFn)
		if err != nil {
			return nil, err
		}
		return &sqlparse.CaseExpr{Operand: op, Whens: whens, Else: els}, nil
	default:
		return nil, fmt.Errorf("rewrite: unsupported expression %T", e)
	}
}
