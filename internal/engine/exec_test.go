package engine

import (
	"math"
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/interval"
)

// fixture builds a small catalog with a sales table, a sample table with
// scale factors, and an aux table, mirroring the shapes used by the
// Section 5 rewrites.
func fixture(t *testing.T) *Catalog {
	t.Helper()
	cat := NewCatalog()

	sales := NewRelation("sales", MustSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "region", Kind: KindString},
		Column{Name: "product", Kind: KindString},
		Column{Name: "qty", Kind: KindInt},
		Column{Name: "price", Kind: KindFloat},
		Column{Name: "day", Kind: KindDate},
	))
	rows := []struct {
		id           int64
		region, prod string
		qty          int64
		price        float64
		day          string
	}{
		{1, "east", "pen", 10, 1.5, "1998-01-01"},
		{2, "east", "pen", 20, 1.5, "1998-02-01"},
		{3, "east", "ink", 5, 8.0, "1998-03-01"},
		{4, "west", "pen", 40, 1.4, "1998-04-01"},
		{5, "west", "ink", 15, 8.5, "1998-05-01"},
		{6, "west", "ink", 25, 8.5, "1998-06-01"},
		{7, "north", "pen", 1, 1.6, "1998-07-01"},
	}
	for _, r := range rows {
		if err := sales.Insert(Row{NewInt(r.id), NewString(r.region), NewString(r.prod), NewInt(r.qty), NewFloat(r.price), MustParseDate(r.day)}); err != nil {
			t.Fatal(err)
		}
	}
	cat.Register(sales)

	samp := NewRelation("samprel", MustSchema(
		Column{Name: "region", Kind: KindString},
		Column{Name: "q", Kind: KindInt},
		Column{Name: "sf", Kind: KindFloat},
	))
	for _, r := range []struct {
		region string
		q      int64
		sf     float64
	}{
		{"east", 10, 100}, {"east", 20, 100},
		{"west", 40, 50}, {"west", 15, 50},
	} {
		samp.Insert(Row{NewString(r.region), NewInt(r.q), NewFloat(r.sf)})
	}
	cat.Register(samp)

	aux := NewRelation("auxrel", MustSchema(
		Column{Name: "region", Kind: KindString},
		Column{Name: "sf", Kind: KindFloat},
	))
	aux.Insert(Row{NewString("east"), NewFloat(100)})
	aux.Insert(Row{NewString("west"), NewFloat(50)})
	cat.Register(aux)

	return cat
}

func mustQuery(t *testing.T, cat *Catalog, q string) *Result {
	t.Helper()
	res, err := ExecuteSQL(cat, q)
	if err != nil {
		t.Fatalf("query %q failed: %v", q, err)
	}
	return res
}

func floatAt(t *testing.T, res *Result, row, col int) float64 {
	t.Helper()
	f, ok := res.Rows[row][col].AsFloat()
	if !ok {
		t.Fatalf("cell (%d,%d) = %v not numeric", row, col, res.Rows[row][col])
	}
	return f
}

func TestSelectAll(t *testing.T) {
	res := mustQuery(t, fixture(t), "select * from sales")
	if len(res.Rows) != 7 || len(res.Columns) != 6 {
		t.Fatalf("got %dx%d", len(res.Rows), len(res.Columns))
	}
}

func TestWhereFilters(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select id from sales where region = 'west' and qty > 14")
	if len(res.Rows) != 3 {
		t.Fatalf("rows=%d, want 3", len(res.Rows))
	}
	res = mustQuery(t, cat, "select id from sales where qty between 10 and 20")
	if len(res.Rows) != 3 {
		t.Fatalf("between rows=%d, want 3", len(res.Rows))
	}
	res = mustQuery(t, cat, "select id from sales where region in ('north', 'nowhere')")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("in-list rows=%v", res.Rows)
	}
	res = mustQuery(t, cat, "select id from sales where not region = 'east' and product like 'i%'")
	if len(res.Rows) != 2 {
		t.Fatalf("like rows=%d, want 2", len(res.Rows))
	}
}

func TestDateComparisonCoercion(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select count(*) from sales where day <= '1998-03-15'")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("date-string coercion count=%v", res.Rows[0][0])
	}
	res = mustQuery(t, cat, "select count(*) from sales where day <= date '1998-03-15'")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("date-literal count=%v", res.Rows[0][0])
	}
}

func TestGroupByAggregates(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, `select region, sum(qty), count(*), avg(price), min(qty), max(qty)
		from sales group by region order by region`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups=%d", len(res.Rows))
	}
	// east: qty 10+20+5=35, count 3, price avg (1.5+1.5+8)/3
	if res.Rows[0][0].S != "east" || res.Rows[0][1].I != 35 || res.Rows[0][2].I != 3 {
		t.Fatalf("east row %v", res.Rows[0])
	}
	if got := floatAt(t, res, 0, 3); math.Abs(got-11.0/3) > 1e-9 {
		t.Errorf("east avg price = %v", got)
	}
	if res.Rows[0][4].I != 5 || res.Rows[0][5].I != 20 {
		t.Errorf("east min/max = %v/%v", res.Rows[0][4], res.Rows[0][5])
	}
	if res.Rows[1][0].S != "north" || res.Rows[2][0].S != "west" {
		t.Errorf("order by region broken: %v", res.Rows)
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select sum(qty), count(*) from sales")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 116 || res.Rows[0][1].I != 7 {
		t.Fatalf("global agg %v", res.Rows)
	}
	// Aggregate over empty input still yields one row.
	res = mustQuery(t, cat, "select count(*), sum(qty) from sales where qty > 10000")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty agg %v", res.Rows)
	}
}

func TestCountDistinctAndVariance(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select count(distinct region), count(distinct product) from sales")
	if res.Rows[0][0].I != 3 || res.Rows[0][1].I != 2 {
		t.Fatalf("distinct counts %v", res.Rows[0])
	}
	res = mustQuery(t, cat, "select variance(qty), stddev(qty) from sales where region = 'east'")
	// east qtys: 10, 20, 5 -> mean 35/3, sample var = 175/3
	wantVar := 175.0 / 3
	if got := floatAt(t, res, 0, 0); math.Abs(got-wantVar) > 1e-9 {
		t.Errorf("variance=%v want %v", got, wantVar)
	}
	if got := floatAt(t, res, 0, 1); math.Abs(got-math.Sqrt(wantVar)) > 1e-9 {
		t.Errorf("stddev=%v", got)
	}
}

func TestHaving(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select region, sum(qty) from sales group by region having sum(qty) > 30 order by region")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "east" || res.Rows[1][0].S != "west" {
		t.Fatalf("having rows %v", res.Rows)
	}
}

func TestArithmeticInSelect(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select 100*sum(qty), sum(qty*2)+1, sum(qty)/2 from sales where region='north'")
	if res.Rows[0][0].I != 100 || res.Rows[0][1].I != 3 {
		t.Fatalf("scaled sums %v", res.Rows[0])
	}
	if got := floatAt(t, res, 0, 2); got != 0.5 {
		t.Errorf("int division must be exact: %v", got)
	}
}

func TestIntegratedRewriteShape(t *testing.T) {
	// Figure 8: per-tuple scale-factor multiply.
	cat := fixture(t)
	res := mustQuery(t, cat, "select region, sum(q*sf) from samprel group by region order by region")
	if len(res.Rows) != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
	if got := floatAt(t, res, 0, 1); got != 3000 { // (10+20)*100
		t.Errorf("east scaled sum = %v", got)
	}
	if got := floatAt(t, res, 1, 1); got != 2750 { // (40+15)*50
		t.Errorf("west scaled sum = %v", got)
	}
}

func TestNestedIntegratedRewriteShape(t *testing.T) {
	// Figure 11: aggregate inside a derived table, then scale per group.
	cat := fixture(t)
	res := mustQuery(t, cat, `select region, sum(sq*sf)
		from (select region, sf, sum(q) as sq from samprel group by region, sf)
		group by region order by region`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
	if got := floatAt(t, res, 0, 1); got != 3000 {
		t.Errorf("east = %v", got)
	}
	if got := floatAt(t, res, 1, 1); got != 2750 {
		t.Errorf("west = %v", got)
	}
}

func TestNormalizedRewriteShape(t *testing.T) {
	// Figure 9: join sample with aux table carrying the scale factors.
	cat := fixture(t)
	res := mustQuery(t, cat, `select s.region, sum(s.q * a.sf)
		from samprel s, auxrel a
		where s.region = a.region
		group by s.region order by s.region`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
	if got := floatAt(t, res, 0, 1); got != 3000 {
		t.Errorf("east = %v", got)
	}
	if got := floatAt(t, res, 1, 1); got != 2750 {
		t.Errorf("west = %v", got)
	}
}

func TestExplicitJoin(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, `select s.region, sum(s.q * a.sf)
		from samprel s join auxrel a on s.region = a.region
		group by s.region order by s.region`)
	if len(res.Rows) != 2 || floatAt(t, res, 0, 1) != 3000 {
		t.Fatalf("explicit join rows %v", res.Rows)
	}
}

func TestCrossJoinFallback(t *testing.T) {
	cat := fixture(t)
	// Non-equi join condition forces nested loop + residual filter.
	res := mustQuery(t, cat, `select count(*) from samprel s, auxrel a where s.sf > a.sf`)
	// samprel sf values: 100,100,50,50; auxrel: 100,50. Pairs with s.sf > a.sf:
	// (100,50) x2 = 2.
	if res.Rows[0][0].I != 2 {
		t.Fatalf("cross join count %v", res.Rows[0][0])
	}
}

func TestAvgViaScaledSums(t *testing.T) {
	// The AVG rewrite: sum(Q*SF)/sum(SF).
	cat := fixture(t)
	res := mustQuery(t, cat, "select sum(q*sf)/sum(sf) from samprel where region = 'east'")
	if got := floatAt(t, res, 0, 0); math.Abs(got-15) > 1e-9 {
		t.Errorf("weighted avg = %v, want 15", got)
	}
}

// TestSumErrorAggregate pins the error-column pseudo-aggregates against
// hand-computed 90 % half-widths. Rows are keyed into strata by the
// trailing stratum columns, not by their scale factor.
func TestSumErrorAggregate(t *testing.T) {
	cat := fixture(t)
	// strata: stratum g, output group out, value v, scale factor sf.
	rel := NewRelation("strata", MustSchema(
		Column{Name: "g", Kind: KindString},
		Column{Name: "out", Kind: KindString},
		Column{Name: "v", Kind: KindFloat},
		Column{Name: "sf", Kind: KindFloat},
	))
	for _, r := range []struct {
		g, out string
		v, sf  float64
	}{
		{"b", "x", 5, 40},                    // one row at sf > 1: sparse
		{"c", "y", 1, 10}, {"c", "y", 3, 10}, // c and d: same sf, means 2 and 102
		{"d", "y", 101, 10}, {"d", "y", 103, 10},
		{"e", "z", 7, 1}, // one row at sf 1: the whole stratum
	} {
		if err := rel.Insert(Row{NewString(r.g), NewString(r.out), NewFloat(r.v), NewFloat(r.sf)}); err != nil {
			t.Fatal(err)
		}
	}
	cat.Register(rel)

	z := interval.ZScore(interval.DefaultConfidence)
	cases := []struct {
		name, sql string
		want      float64
	}{
		// east stratum: values 10,20 sf=100: s^2 = 50, var = 100^2*2*(1-0.01)*50.
		{"sum", "select sum_error(q, sf, region) from samprel where region = 'east'",
			z * math.Sqrt(100*100*2*0.99*50)},
		{"count", "select count_error(sf, region) from samprel",
			z * math.Sqrt(2*100*99+2*50*49)},
		// A lone row at sf 40 has no sample variance: the Hoeffding
		// fallback over the degenerate range [5, 5] (width |5|) for n = 1,
		// weighted by the stratum's scaled count.
		{"single-row stratum", "select sum_error(v, sf, g) from strata where g = 'b'",
			40 * 5 * math.Sqrt(math.Log(2/(1-interval.DefaultConfidence))/2)},
		{"single row at sf 1", "select sum_error(v, sf, g) from strata where g = 'e'", 0},
		// c and d each have s^2 = 2 around their own means; pooling them
		// as one sf = 10 class would use the s^2 of {1, 3, 101, 103}.
		{"equal sf not pooled", "select sum_error(v, sf, g) from strata where out = 'y'",
			z * math.Sqrt(2*(10*10*2*0.9*2))},
		// Delta-method ratio bound: R = 52, Σ sf(sf-1)(v-R)^2 over the
		// four rows, over the scaled count 40.
		{"avg delta method", "select avg_error(v, sf, g) from strata where out = 'y'",
			z * math.Sqrt(10*9*(51*51+49*49+49*49+51*51)) / 40},
	}
	for _, c := range cases {
		res := mustQuery(t, cat, c.sql)
		if got := floatAt(t, res, 0, 0); math.Abs(got-c.want) > 1e-9*math.Max(1, c.want) {
			t.Errorf("%s: %s = %v, want %v", c.name, c.sql, got, c.want)
		}
	}

	for _, q := range []string{
		"select sum_error(v, sf) from strata",
		"select avg_error(v, sf) from strata",
		"select count_error(sf) from strata",
	} {
		if _, err := ExecuteSQL(cat, q); err == nil {
			t.Errorf("%s without stratum columns succeeded, want error", q)
		}
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select id from sales order by qty desc limit 2")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 4 || res.Rows[1][0].I != 6 {
		t.Fatalf("top-2 %v", res.Rows)
	}
	res = mustQuery(t, cat, "select id from sales order by qty desc limit 2 offset 1")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 6 {
		t.Fatalf("offset rows %v", res.Rows)
	}
	res = mustQuery(t, cat, "select id from sales order by id limit 100 offset 100")
	if len(res.Rows) != 0 {
		t.Fatalf("offset past end rows %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select distinct region from sales order by region")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct rows %v", res.Rows)
	}
}

func TestAliasInGroupByAndOrderBy(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select region as r, sum(qty) as total from sales group by r order by total desc")
	if len(res.Rows) != 3 || res.Rows[0][0].S != "west" {
		t.Fatalf("alias group-by rows %v", res.Rows)
	}
	if res.Columns[0] != "r" || res.Columns[1] != "total" {
		t.Errorf("columns %v", res.Columns)
	}
}

func TestCaseExpression(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, `select sum(case when region = 'east' then qty else 0 end) from sales`)
	if res.Rows[0][0].I != 35 {
		t.Fatalf("case sum %v", res.Rows[0][0])
	}
}

func TestScalarFunctions(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select abs(-3), sqrt(16.0), round(2.567, 2), upper(region), length(product), year(day) from sales where id = 1")
	row := res.Rows[0]
	if row[0].I != 3 {
		t.Errorf("abs %v", row[0])
	}
	if row[1].F != 4 {
		t.Errorf("sqrt %v", row[1])
	}
	if math.Abs(row[2].F-2.57) > 1e-9 {
		t.Errorf("round %v", row[2])
	}
	if row[3].S != "EAST" {
		t.Errorf("upper %v", row[3])
	}
	if row[4].I != 3 {
		t.Errorf("length %v", row[4])
	}
	if row[5].I != 1998 {
		t.Errorf("year %v", row[5])
	}
}

func TestCoalesceNullIf(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select coalesce(null, 5), nullif(3, 3), nullif(3, 4) from sales where id = 1")
	row := res.Rows[0]
	if row[0].I != 5 || !row[1].IsNull() || row[2].I != 3 {
		t.Fatalf("coalesce/nullif %v", row)
	}
}

func TestSelectConstantsNoFrom(t *testing.T) {
	cat := NewCatalog()
	res := mustQuery(t, cat, "select 1+2 as three, 'x'")
	if res.Rows[0][0].I != 3 || res.Rows[0][1].S != "x" {
		t.Fatalf("constants %v", res.Rows[0])
	}
	if res.Columns[0] != "three" {
		t.Errorf("columns %v", res.Columns)
	}
}

func TestErrorCases(t *testing.T) {
	cat := fixture(t)
	bad := []string{
		"select * from nosuchtable",
		"select nosuchcol from sales",
		"select s.qty from sales",                   // wrong qualifier
		"select region from sales, samprel",         // ambiguous region
		"select sum(region) from sales",             // sum over string
		"select qty from sales where sum(qty) > 1",  // aggregate in WHERE
		"select nosuch(qty) from sales",             // unknown function
		"select sum(qty, price) from sales",         // arity
		"select sum_error(qty) from sales",          // arity
		"select id from sales where region + 1 = 2", // string arithmetic
		"select * from (select region from sales) s, sales where s.region = sales.region and nosuch = 1",
	}
	for _, q := range bad {
		if _, err := ExecuteSQL(cat, q); err == nil {
			t.Errorf("query %q succeeded, want error", q)
		}
	}
}

func TestAmbiguousQualifiedOK(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select sales.region from sales, auxrel where sales.region = auxrel.region order by sales.region")
	// east sales rows 1-3 match the east aux row, west rows 4-6 match
	// west; the north row has no partner.
	if len(res.Rows) != 6 {
		t.Fatalf("qualified join rows = %d, want 6", len(res.Rows))
	}
}

func TestResultString(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, "select region, sum(qty) as total from sales group by region order by region")
	s := res.String()
	if !strings.Contains(s, "region") || !strings.Contains(s, "total") || !strings.Contains(s, "east") {
		t.Errorf("rendered table missing content:\n%s", s)
	}
}

func TestSubqueryColumnVisibility(t *testing.T) {
	cat := fixture(t)
	res := mustQuery(t, cat, `select t.r, t.total from (select region as r, sum(qty) as total from sales group by region) t where t.total > 30 order by t.r`)
	if len(res.Rows) != 2 || res.Rows[0][0].S != "east" {
		t.Fatalf("subquery rows %v", res.Rows)
	}
}

func TestIsNullPredicate(t *testing.T) {
	cat := NewCatalog()
	rel := NewRelation("t", MustSchema(Column{Name: "v", Kind: KindInt}))
	rel.Insert(Row{NewInt(1)})
	rel.Insert(Row{Null})
	cat.Register(rel)
	res := mustQuery(t, cat, "select count(*) from t where v is null")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("is null count %v", res.Rows[0][0])
	}
	res = mustQuery(t, cat, "select count(v) from t")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("count skips null: %v", res.Rows[0][0])
	}
	res = mustQuery(t, cat, "select sum(v), avg(v) from t where v is not null")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("sum %v", res.Rows[0][0])
	}
}
