package rewrite

import (
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/sqlparse"
)

// TestRewritePredicateShapes drives every expression-node kind through
// the Normalized qualifier and the Integrated aggregate mapper (both
// mapExpr).
func TestRewritePredicateShapes(t *testing.T) {
	q := `select l_returnflag,
		sum(case when l_quantity > 5 then l_quantity else 0 end),
		avg(abs(l_quantity))
	from lineitem
	where l_shipdate between '1995-01-01' and '1998-01-01'
		and l_returnflag in (1, 2, 3)
		and l_linestatus is not null
		and not l_quantity > 100
		and -l_quantity < 0
	group by l_returnflag`

	for _, strat := range []Strategy{Integrated, Normalized, KeyNormalized} {
		s := mustRewrite(t, q, strat, testTables)
		if !strings.Contains(s, "BETWEEN") || !strings.Contains(s, "IN (1, 2, 3)") ||
			!strings.Contains(s, "IS NOT NULL") || !strings.Contains(s, "CASE WHEN") {
			t.Errorf("%v dropped predicate structure: %s", strat, s)
		}
	}
	// Normalized must qualify columns inside those predicates.
	s := mustRewrite(t, q, Normalized, testTables)
	for _, frag := range []string{"s.l_shipdate", "s.l_returnflag", "s.l_linestatus"} {
		if !strings.Contains(s, frag) {
			t.Errorf("normalized did not qualify %q: %s", frag, s)
		}
	}
	// Scalar function arguments inside aggregates get qualified too.
	if !strings.Contains(s, "ABS(s.l_quantity)") {
		t.Errorf("normalized did not qualify function args: %s", s)
	}
}

func TestRewriteSimpleCaseAndConcat(t *testing.T) {
	q := `select sum(l_quantity), case l_returnflag when 1 then 'a' else 'b' end
		from lineitem group by case l_returnflag when 1 then 'a' else 'b' end`
	// Group-by on an expression is fine for non-nested strategies.
	for _, strat := range []Strategy{Integrated, Normalized} {
		s := mustRewrite(t, q, strat, testTables)
		if !strings.Contains(s, "CASE l_returnflag") && !strings.Contains(s, "CASE s.l_returnflag") {
			t.Errorf("%v lost simple CASE: %s", strat, s)
		}
	}
}

func TestRewriteQualifiedInputColumns(t *testing.T) {
	// A user query that already qualifies columns with the base table
	// name keeps working under Integrated (the qualifier is left as-is
	// only when it resolves; our Integrated rewrite does not rename).
	q := `select sum(l_quantity) from lineitem where l_quantity > 1`
	s := mustRewrite(t, q, Integrated, testTables)
	if !strings.Contains(s, "FROM cs_lineitem") {
		t.Errorf("integrated rewrite: %s", s)
	}
}

func TestRewriteIntegratedErrorColumnsForCountAvg(t *testing.T) {
	tbl := testTables
	tbl.WithErrorColumns = true
	s := mustRewrite(t, "select count(*), avg(l_quantity) from lineitem", Integrated, tbl)
	if !strings.Contains(s, "COUNT_ERROR(sf, l_returnflag, l_linestatus)") ||
		!strings.Contains(s, "AVG_ERROR(l_quantity, sf, l_returnflag, l_linestatus)") {
		t.Errorf("error columns missing: %s", s)
	}
	// min/max contribute no error column.
	s = mustRewrite(t, "select min(l_quantity) from lineitem", Integrated, tbl)
	if strings.Contains(s, "_ERROR") {
		t.Errorf("min should not emit an error column: %s", s)
	}
}

func TestRewriteNestedCountColumn(t *testing.T) {
	// COUNT(col) (not star) through Nested-integrated.
	s := mustRewrite(t, "select l_returnflag, count(l_quantity) from lineitem group by l_returnflag", NestedIntegrated, testTables)
	if !strings.Contains(s, "COUNT(l_quantity) AS p0") || !strings.Contains(s, "SUM((p0 * sf))") {
		t.Errorf("nested count(col): %s", s)
	}
}

func TestRewriteNestedMinMax(t *testing.T) {
	s := mustRewrite(t, "select l_returnflag, min(l_quantity), max(l_quantity) from lineitem group by l_returnflag", NestedIntegrated, testTables)
	if !strings.Contains(s, "MIN(l_quantity) AS p0") || !strings.Contains(s, "MIN(p0)") {
		t.Errorf("nested min: %s", s)
	}
	if !strings.Contains(s, "MAX(p1)") {
		t.Errorf("nested max: %s", s)
	}
}

func TestRewriteNestedDistinctKeyword(t *testing.T) {
	stmt := sqlparse.MustParse("select distinct l_returnflag, sum(l_quantity) from lineitem group by l_returnflag")
	out, err := Rewrite(stmt, NestedIntegrated, testTables)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Distinct {
		t.Error("DISTINCT dropped by nested rewrite")
	}
}

func TestRewriteLimitOffsetPreserved(t *testing.T) {
	q := "select l_returnflag, sum(l_quantity) from lineitem group by l_returnflag order by l_returnflag limit 5 offset 2"
	for _, strat := range Strategies {
		s := mustRewrite(t, q, strat, testTables)
		if !strings.Contains(s, "LIMIT 5") || !strings.Contains(s, "OFFSET 2") {
			t.Errorf("%v lost LIMIT/OFFSET: %s", strat, s)
		}
	}
}

// TestIntegratedMapAggregatesArms drives every expression-node kind
// through the Integrated aggregate mapper by embedding aggregates in
// rich select-list expressions.
func TestIntegratedMapAggregatesArms(t *testing.T) {
	q := `select
		case when sum(l_quantity) > 100 then 'big' else 'small' end,
		case sum(l_quantity) when 0 then 1 end,
		sum(l_quantity) between 1 and 10,
		sum(l_quantity) in (1, 2),
		sum(l_quantity) is null,
		-sum(l_quantity),
		abs(sum(l_quantity)),
		not sum(l_quantity) > 5
	from lineitem`
	s := mustRewrite(t, q, Integrated, testTables)
	if strings.Count(s, "SUM((l_quantity * sf))") < 8 {
		t.Errorf("not all aggregate occurrences rewritten: %s", s)
	}
	// The same shapes survive Nested-integrated, sharing one partial.
	s = mustRewrite(t, q, NestedIntegrated, testTables)
	if strings.Count(s, "SUM(l_quantity) AS p0") != 1 {
		t.Errorf("nested partials: %s", s)
	}
}

func TestRewriteVarianceInHavingRejected(t *testing.T) {
	stmt := sqlparse.MustParse("select sum(l_quantity) from lineitem having variance(l_quantity) > 0")
	for _, strat := range Strategies {
		if _, err := Rewrite(stmt, strat, testTables); err == nil {
			t.Errorf("%v accepted VARIANCE in HAVING", strat)
		}
	}
}
