package engine

import (
	"math/rand"
	"testing"
)

// benchCatalog builds an n-row lineitem-like table once per benchmark.
func benchCatalog(n int) *Catalog {
	cat := NewCatalog()
	cat.Register(vecFuzzTable(rand.New(rand.NewSource(1)), n))
	return cat
}

// mustVectorize fails loudly if the query ever falls off the fast path
// — a speedup measured against the row engine by accident is the exact
// regression this harness exists to catch.
func mustVectorize(tb testing.TB, cat *Catalog, query string) {
	tb.Helper()
	v0, _ := ExecCounts()
	if _, err := ExecuteSQL(cat, query); err != nil {
		tb.Fatal(err)
	}
	if v1, _ := ExecCounts(); v1 == v0 {
		tb.Fatalf("query not vectorized: %s", query)
	}
}

func benchQuery(b *testing.B, cat *Catalog, query string, vectorized bool) {
	b.Helper()
	prev := SetVectorized(vectorized)
	defer SetVectorized(prev)
	if vectorized {
		mustVectorize(b, cat, query)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteSQL(cat, query); err != nil {
			b.Fatal(err)
		}
	}
}

const (
	benchRows     = 200_000
	benchAggQuery = "select status, mode, sum(price * (1 - disc)), sum(qty), avg(price), count(*) " +
		"from li where qty < 40 and ship >= '1996-01-01' group by status, mode order by status, mode"
	benchScanQuery = "select qty, price from li where price > 90000.0 and mode = 'AIR' order by price"
)

func BenchmarkVectorizedAggregate(b *testing.B) {
	benchQuery(b, benchCatalog(benchRows), benchAggQuery, true)
}

func BenchmarkRowEngineAggregate(b *testing.B) {
	benchQuery(b, benchCatalog(benchRows), benchAggQuery, false)
}

func BenchmarkVectorizedScan(b *testing.B) {
	benchQuery(b, benchCatalog(benchRows), benchScanQuery, true)
}

func BenchmarkRowEngineScan(b *testing.B) {
	benchQuery(b, benchCatalog(benchRows), benchScanQuery, false)
}

// TestLineitemScansStayVectorized holds the two statement shapes the
// row-vs-columnar ratio is quoted for — scan-filter-aggregate and
// scan-filter-project over the TPC-D lineitem columns — to the same
// eligibility guard as the benchmarks, on every test run rather than
// only when someone runs -bench.
func TestLineitemScansStayVectorized(t *testing.T) {
	rel := NewRelation("lineitem", MustSchema(
		Column{Name: "l_id", Kind: KindInt},
		Column{Name: "l_returnflag", Kind: KindInt},
		Column{Name: "l_linestatus", Kind: KindInt},
		Column{Name: "l_shipdate", Kind: KindDate},
		Column{Name: "l_quantity", Kind: KindFloat},
		Column{Name: "l_extendedprice", Kind: KindFloat},
	))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		if err := rel.Insert(Row{
			NewInt(int64(i)), NewInt(int64(rng.Intn(3))), NewInt(int64(rng.Intn(2))),
			NewDate(8400 + int64(rng.Intn(1460))), // 1993..1996
			NewFloat(float64(1 + rng.Intn(1000))), NewFloat(900 + 1000*rng.Float64()),
		}); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	cat.Register(rel)
	prev := SetVectorized(true)
	defer SetVectorized(prev)
	for _, query := range []string{
		"select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), " +
			"avg(l_extendedprice), count(*) from lineitem " +
			"where l_shipdate >= '1994-01-01' and l_quantity < 500 " +
			"group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus",
		"select l_id, l_quantity, l_extendedprice from lineitem " +
			"where l_extendedprice > 1400.0 and l_quantity between 100 and 900 " +
			"order by l_id limit 100",
	} {
		mustVectorize(t, cat, query)
	}
}
