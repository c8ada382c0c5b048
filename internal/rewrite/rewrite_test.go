package rewrite

import (
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/sqlparse"
)

var testTables = Tables{
	Base:      "lineitem",
	Sample:    "cs_lineitem",
	Aux:       "cs_lineitem_aux",
	GroupCols: []string{"l_returnflag", "l_linestatus"},
}

const userQuery = `select l_returnflag, l_linestatus, sum(l_quantity)
	from lineitem
	where l_shipdate <= '1998-09-01'
	group by l_returnflag, l_linestatus`

func mustRewrite(t *testing.T, q string, strat Strategy, tbl Tables) string {
	t.Helper()
	stmt := sqlparse.MustParse(q)
	out, err := Rewrite(stmt, strat, tbl)
	if err != nil {
		t.Fatalf("%v rewrite failed: %v", strat, err)
	}
	// The rewritten text must itself parse.
	if _, err := sqlparse.Parse(out.String()); err != nil {
		t.Fatalf("%v rewrite produced unparsable SQL %q: %v", strat, out, err)
	}
	return out.String()
}

func TestIntegratedShape(t *testing.T) {
	s := mustRewrite(t, userQuery, Integrated, testTables)
	for _, frag := range []string{"FROM cs_lineitem", "SUM((l_quantity * sf))", "GROUP BY l_returnflag, l_linestatus", "l_shipdate <= '1998-09-01'"} {
		if !strings.Contains(s, frag) {
			t.Errorf("integrated rewrite %q missing %q", s, frag)
		}
	}
	if strings.Contains(s, "lineitem ") && !strings.Contains(s, "cs_lineitem") {
		t.Errorf("base table leaked: %s", s)
	}
}

func TestIntegratedWithErrorColumns(t *testing.T) {
	tbl := testTables
	tbl.WithErrorColumns = true
	s := mustRewrite(t, userQuery, Integrated, tbl)
	if !strings.Contains(s, "SUM_ERROR(l_quantity, sf, l_returnflag, l_linestatus) AS error1") {
		t.Errorf("missing error column: %s", s)
	}
	// The error aggregates key strata by the synopsis grouping, so they
	// cannot be built without it.
	tbl.GroupCols = nil
	if _, err := Rewrite(sqlparse.MustParse(userQuery), Integrated, tbl); err == nil {
		t.Error("error columns without grouping columns accepted")
	}
}

func TestIntegratedCountAvg(t *testing.T) {
	s := mustRewrite(t, "select l_returnflag, count(*), avg(l_quantity) from lineitem group by l_returnflag", Integrated, testTables)
	if !strings.Contains(s, "SUM(sf)") {
		t.Errorf("count not rewritten to SUM(sf): %s", s)
	}
	if !strings.Contains(s, "(SUM((l_quantity * sf)) / SUM(sf))") {
		t.Errorf("avg not rewritten to ratio: %s", s)
	}
}

func TestIntegratedScaledExpression(t *testing.T) {
	// The Figure 2 form: 100*sum(...) — the constant multiplies the
	// already-scaled aggregate.
	s := mustRewrite(t, "select 100*sum(l_quantity) from lineitem", Integrated, testTables)
	if !strings.Contains(s, "(100 * SUM((l_quantity * sf)))") {
		t.Errorf("arithmetic around aggregate lost: %s", s)
	}
}

func TestNestedIntegratedShape(t *testing.T) {
	s := mustRewrite(t, userQuery, NestedIntegrated, testTables)
	for _, frag := range []string{
		"FROM (SELECT l_returnflag, l_linestatus, sf, SUM(l_quantity) AS p0 FROM cs_lineitem",
		"GROUP BY l_returnflag, l_linestatus, sf",
		"SUM((p0 * sf))",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("nested-integrated rewrite %q missing %q", s, frag)
		}
	}
	// The WHERE must move inside the derived table.
	inner := s[strings.Index(s, "("):strings.LastIndex(s, ")")]
	if !strings.Contains(inner, "l_shipdate") {
		t.Errorf("predicate not pushed into inner query: %s", s)
	}
}

func TestNestedIntegratedAvg(t *testing.T) {
	// Figure 13: AVG becomes sum(p_sum*SF)/sum(p_count*SF).
	s := mustRewrite(t, "select l_returnflag, avg(l_quantity) from lineitem group by l_returnflag", NestedIntegrated, testTables)
	if !strings.Contains(s, "SUM((p0 * sf)) / SUM((p1 * sf))") {
		t.Errorf("nested avg shape: %s", s)
	}
	if !strings.Contains(s, "COUNT(*) AS p1") {
		t.Errorf("inner count partial missing: %s", s)
	}
}

func TestNestedIntegratedSharedPartials(t *testing.T) {
	// sum(x) appearing twice should share one inner partial.
	s := mustRewrite(t, "select sum(l_quantity), sum(l_quantity)/2 from lineitem", NestedIntegrated, testTables)
	if strings.Count(s, "SUM(l_quantity) AS p0") != 1 {
		t.Errorf("partials not shared: %s", s)
	}
	if strings.Contains(s, "AS p1") {
		t.Errorf("extra partial allocated: %s", s)
	}
}

func TestNormalizedShape(t *testing.T) {
	s := mustRewrite(t, userQuery, Normalized, testTables)
	for _, frag := range []string{
		"FROM cs_lineitem s, cs_lineitem_aux x",
		"(s.l_returnflag = x.l_returnflag)",
		"(s.l_linestatus = x.l_linestatus)",
		"SUM((s.l_quantity * x.sf))",
		"GROUP BY s.l_returnflag, s.l_linestatus",
		"s.l_shipdate <= '1998-09-01'",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("normalized rewrite %q missing %q", s, frag)
		}
	}
}

func TestKeyNormalizedShape(t *testing.T) {
	s := mustRewrite(t, userQuery, KeyNormalized, testTables)
	if !strings.Contains(s, "(s.gid = x.gid)") {
		t.Errorf("gid join missing: %s", s)
	}
	if strings.Contains(s, "x.l_returnflag") {
		t.Errorf("key-normalized should not join on grouping columns: %s", s)
	}
}

func TestRewriteHavingAndOrderBy(t *testing.T) {
	q := "select l_returnflag, sum(l_quantity) from lineitem group by l_returnflag having sum(l_quantity) > 10 order by sum(l_quantity) desc"
	for _, strat := range Strategies {
		s := mustRewrite(t, q, strat, testTables)
		if !strings.Contains(s, "HAVING") || !strings.Contains(s, "ORDER BY") {
			t.Errorf("%v lost HAVING/ORDER BY: %s", strat, s)
		}
		if strings.Contains(strings.ToUpper(s), "HAVING SUM(L_QUANTITY) >") {
			t.Errorf("%v HAVING not scaled: %s", strat, s)
		}
	}
}

func TestRewriteMinMaxPassThrough(t *testing.T) {
	s := mustRewrite(t, "select l_returnflag, min(l_quantity), max(l_quantity) from lineitem group by l_returnflag", Integrated, testTables)
	if !strings.Contains(s, "MIN(l_quantity)") || !strings.Contains(s, "MAX(l_quantity)") {
		t.Errorf("min/max should pass through unscaled: %s", s)
	}
}

func TestRewriteErrors(t *testing.T) {
	cases := []struct {
		q     string
		strat Strategy
	}{
		{"select sum(q) from othertable", Integrated},
		{"select sum(q) from lineitem, other", Integrated},
		{"select sum(q) from (select q from lineitem)", Integrated},
		{"select * from lineitem", Integrated},
		{"select count(distinct l_quantity) from lineitem", Integrated},
		{"select variance(l_quantity) from lineitem", Integrated},
		{"select sum(l_quantity) from lineitem group by l_returnflag+1", NestedIntegrated},
	}
	for _, c := range cases {
		stmt, err := sqlparse.Parse(c.q)
		if err != nil {
			t.Fatalf("parse %q: %v", c.q, err)
		}
		if _, err := Rewrite(stmt, c.strat, testTables); err == nil {
			t.Errorf("Rewrite(%q, %v) succeeded, want error", c.q, c.strat)
		}
	}
	// Normalized without an aux relation.
	stmt := sqlparse.MustParse("select sum(l_quantity) from lineitem")
	if _, err := Rewrite(stmt, Normalized, Tables{Base: "lineitem", Sample: "s"}); err == nil {
		t.Error("Normalized without aux accepted")
	}
	if _, err := Rewrite(stmt, Strategy(99), testTables); err == nil {
		t.Error("unknown strategy accepted")
	}
	// Normalized needs grouping columns.
	if _, err := Rewrite(stmt, Normalized, Tables{Base: "lineitem", Sample: "s", Aux: "a"}); err == nil {
		t.Error("Normalized without grouping columns accepted")
	}
}

func TestRewriteDoesNotMutateInput(t *testing.T) {
	stmt := sqlparse.MustParse(userQuery)
	before := stmt.String()
	for _, strat := range Strategies {
		if _, err := Rewrite(stmt, strat, testTables); err != nil {
			t.Fatal(err)
		}
	}
	if stmt.String() != before {
		t.Errorf("input AST mutated:\nbefore: %s\nafter:  %s", before, stmt.String())
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		Integrated: "Integrated", NestedIntegrated: "Nested-integrated",
		Normalized: "Normalized", KeyNormalized: "Key-normalized",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d = %q, want %q", s, s.String(), want)
		}
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy renders empty")
	}
}
