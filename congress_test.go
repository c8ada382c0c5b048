package congress

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/tpcd"
)

// buildSalesWarehouse creates a warehouse with a skewed sales table:
// region "east" dominates, "tiny" has very few rows.
func buildSalesWarehouse(t testing.TB) (*Warehouse, *Table) {
	t.Helper()
	w := Open()
	tbl, err := w.CreateTable("sales",
		Col("region", String),
		Col("product", String),
		Col("amount", Float),
	)
	if err != nil {
		t.Fatal(err)
	}
	insert := func(region, product string, n int, base float64) {
		for i := 0; i < n; i++ {
			if err := tbl.Insert(Str(region), Str(product), F(base+float64(i%10))); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert("east", "pen", 5000, 10)
	insert("east", "ink", 3000, 50)
	insert("west", "pen", 1500, 12)
	insert("west", "ink", 480, 55)
	insert("tiny", "pen", 20, 100)
	return w, tbl
}

func TestWarehouseQuickstartFlow(t *testing.T) {
	w, tbl := buildSalesWarehouse(t)
	if tbl.NumRows() != 10000 {
		t.Fatalf("rows %d", tbl.NumRows())
	}
	if tbl.Name() != "sales" {
		t.Fatalf("name %q", tbl.Name())
	}
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 1000, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}

	exact, err := w.Query(`select region, sum(amount) from sales group by region order by region`)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := w.Approx(`select region, sum(amount) from sales group by region order by region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx.Rows) != len(exact.Rows) {
		t.Fatalf("approx groups %d, exact %d", len(approx.Rows), len(exact.Rows))
	}
	for i := range exact.Rows {
		ev, _ := exact.Rows[i][1].AsFloat()
		av, _ := approx.Rows[i][1].AsFloat()
		if math.Abs(ev-av) > 0.25*ev {
			t.Errorf("group %v: approx %.0f vs exact %.0f", exact.Rows[i][0], av, ev)
		}
	}
}

func TestApproxWithAllStrategies(t *testing.T) {
	w, _ := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 2000, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	q := `select region, product, count(*) from sales group by region, product order by region, product`
	var first *Result
	for _, strat := range []RewriteStrategy{Integrated, NestedIntegrated, Normalized, KeyNormalized} {
		res, _, err := w.ApproxQuery(context.Background(), q, ApproxOptions{Rewrite: strat, UseRewrite: true})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if first == nil {
			first = res
			continue
		}
		if len(res.Rows) != len(first.Rows) {
			t.Fatalf("%v rows %d vs %d", strat, len(res.Rows), len(first.Rows))
		}
		for i := range res.Rows {
			a, _ := res.Rows[i][2].AsFloat()
			b, _ := first.Rows[i][2].AsFloat()
			if math.Abs(a-b) > 1e-6 {
				t.Errorf("%v row %d: %v vs %v", strat, i, a, b)
			}
		}
	}
}

func TestTinyGroupSurvives(t *testing.T) {
	// The motivating claim: with Congress, the 20-row group appears in
	// a 5% sample; with House it usually drowns.
	w, _ := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 500,
		Strategy: Congress, Seed: 11,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Approx(`select region, count(*) from sales group by region order by region`)
	if err != nil {
		t.Fatal(err)
	}
	foundTiny := false
	for _, row := range res.Rows {
		if row[0].S == "tiny" {
			foundTiny = true
			cnt, _ := row[1].AsFloat()
			if math.Abs(cnt-20) > 10 {
				t.Errorf("tiny count estimate %v, want ~20", cnt)
			}
		}
	}
	if !foundTiny {
		t.Error("tiny group missing from Congress answer")
	}
}

func TestExplain(t *testing.T) {
	w, _ := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 100,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := w.Explain(`select region, sum(amount) from sales group by region`, Integrated)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "cs_sales") || !strings.Contains(strings.ToLower(s), "sf") {
		t.Errorf("explain output %q", s)
	}
}

func TestEstimateDirect(t *testing.T) {
	w, _ := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 1500, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	ests, err := w.Estimate("sales", []string{"region"}, Sum, "amount", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 {
		t.Fatalf("estimates %v", ests)
	}
	for _, e := range ests {
		if e.Value <= 0 || e.Bound < 0 {
			t.Errorf("estimate %+v", e)
		}
	}
	// Error paths.
	if _, err := w.Estimate("nope", []string{"region"}, Sum, "amount", 0); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := w.Estimate("sales", []string{"ghost"}, Sum, "amount", 0); err == nil {
		t.Error("unknown grouping column accepted")
	}
	if _, err := w.Estimate("sales", []string{"region"}, Sum, "ghost", 0); err == nil {
		t.Error("unknown aggregate column accepted")
	}
}

// TestEstimateMissingBaseRelation: a synopsis whose backing relation
// has vanished from the catalog must yield an error, not a nil-pointer
// panic (regression: Estimate ignored the catalog-lookup result).
func TestEstimateMissingBaseRelation(t *testing.T) {
	w, _ := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	w.cat.Drop("sales")
	if _, err := w.Estimate("sales", []string{"region"}, Sum, "amount", 0); err == nil {
		t.Error("Estimate over a dropped base relation returned no error")
	}
}

// TestEstimateKeyNoSeparatorCollision: groupings whose string values
// contain the old "/" separator must not collide (regression: joinParts
// rendered ("a/b","c") and ("a","b/c") to the same key).
func TestEstimateKeyNoSeparatorCollision(t *testing.T) {
	w := Open()
	tbl, err := w.CreateTable("t",
		Col("g1", String), Col("g2", String), Col("v", Float))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(Str("a/b"), Str("c"), F(1)); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(Str("a"), Str("b/c"), F(10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "t", GroupBy: []string{"g1", "g2"}, Space: 100, Seed: 4,
	}); err != nil {
		t.Fatal(err)
	}
	ests, err := w.Estimate("t", []string{"g1", "g2"}, Sum, "v", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 2 {
		t.Fatalf("estimates for ambiguous keys merged: got %d groups, want 2: %+v", len(ests), ests)
	}
	for _, e := range ests {
		parts := SplitEstimateKey(e.Key)
		if len(parts) != 2 {
			t.Errorf("key %q splits into %v, want 2 parts", e.Key, parts)
		}
	}
}

// TestBuildSynopsisParallelWorkers: the facade accepts BuildWorkers and
// a parallel build answers queries just like a serial one.
func TestBuildSynopsisParallelWorkers(t *testing.T) {
	w, _ := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 1000,
		Seed: 3, BuildWorkers: 4,
	}); err != nil {
		t.Fatal(err)
	}
	exact, err := w.Query(`select region, sum(amount) from sales group by region order by region`)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := w.Approx(`select region, sum(amount) from sales group by region order by region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx.Rows) != len(exact.Rows) {
		t.Fatalf("approx groups %d, exact %d", len(approx.Rows), len(exact.Rows))
	}
	for i := range exact.Rows {
		ev, _ := exact.Rows[i][1].AsFloat()
		av, _ := approx.Rows[i][1].AsFloat()
		if math.Abs(ev-av) > 0.25*ev {
			t.Errorf("group %v: approx %.0f vs exact %.0f", exact.Rows[i][0], av, ev)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	w, tbl := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Str("east"), Str("pen"), F(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Approx(`select region, count(*) from sales group by region`); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Estimate("sales", []string{"region"}, Count, "amount", 0); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.Build.Count != 1 || m.Build.Total <= 0 {
		t.Errorf("build stats %+v", m.Build)
	}
	if m.RowsScanned < 10000 {
		t.Errorf("rows scanned %d, want >= table size", m.RowsScanned)
	}
	if m.StrataTouched != 5 {
		t.Errorf("strata touched %d, want 5", m.StrataTouched)
	}
	if m.Answer.Count != 1 || m.Estimate.Count != 1 {
		t.Errorf("op counts %+v", m)
	}
	if m.MaintainerInserts != 1 || m.MaintainerQueueDepth != 1 {
		t.Errorf("maintainer counters %+v", m)
	}
	if err := w.RefreshSynopsis("sales"); err != nil {
		t.Fatal(err)
	}
	m = w.Metrics()
	if m.Refresh.Count != 1 || m.MaintainerQueueDepth != 0 {
		t.Errorf("post-refresh counters refresh=%+v depth=%d", m.Refresh, m.MaintainerQueueDepth)
	}
}

func TestInsertFeedsMaintainer(t *testing.T) {
	w, tbl := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	// The pre-existing handle also works: synopsis resolution happens
	// per insert.
	tbl, err := w.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tbl.Insert(Str("north"), Str("pen"), F(7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RefreshSynopsis("sales"); err != nil {
		t.Fatal(err)
	}
	res, err := w.Approx(`select region, count(*) from sales group by region`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0].S == "north" {
			cnt, _ := row[1].AsFloat()
			if math.Abs(cnt-3000) > 600 {
				t.Errorf("north count %v, want ~3000", cnt)
			}
			return
		}
	}
	t.Error("maintained group 'north' missing after refresh")
}

func TestBuildJoinSynopsis(t *testing.T) {
	w := Open()
	dim, err := w.CreateTable("regions",
		Col("r_id", Int), Col("zone", String))
	if err != nil {
		t.Fatal(err)
	}
	dim.Insert(I(1), Str("north"))
	dim.Insert(I(2), Str("south"))
	fact, err := w.CreateTable("events",
		Col("e_id", Int), Col("r", Int), Col("v", Float))
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(3)
	for i := 0; i < 8000; i++ {
		r := int64(1)
		if rng.Intn(10) == 0 {
			r = 2 // "south" is the rare zone
		}
		fact.Insert(I(int64(i)), I(r), F(rng.Float64()*10))
	}
	if err := w.BuildJoinSynopsis(
		JoinSpec{Name: "events_wide", Fact: "events",
			Dims: []DimJoin{{Table: "regions", FactKey: "r", DimKey: "r_id"}}},
		SynopsisSpec{GroupBy: []string{"zone"}, Space: 400, Seed: 6},
	); err != nil {
		t.Fatal(err)
	}
	res, err := w.Approx(`select zone, count(*) from events_wide group by zone order by zone`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("zones %v", res.Rows)
	}
	// The rare zone's count must be estimated within a sane band.
	for _, row := range res.Rows {
		if row[0].S == "south" {
			c, _ := row[1].AsFloat()
			if math.Abs(c-800) > 250 {
				t.Errorf("south count %v, want ~800", c)
			}
		}
	}
	// Bad specs error.
	if err := w.BuildJoinSynopsis(JoinSpec{Name: "x", Fact: "ghost"}, SynopsisSpec{GroupBy: []string{"zone"}, Space: 10}); err == nil {
		t.Error("bad join spec accepted")
	}
}

func TestAllocationTable(t *testing.T) {
	w, _ := buildSalesWarehouse(t)
	if _, err := w.AllocationTable("sales"); err == nil {
		t.Error("allocation table before synopsis accepted")
	}
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	rows, err := w.AllocationTable("sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("allocation rows %d, want 5 groups", len(rows))
	}
	var totalActual int
	var totalPop int64
	for i, r := range rows {
		totalActual += r.Actual
		totalPop += r.Population
		if r.Target <= 0 || r.PreScale < r.Target-1e-9 {
			t.Errorf("row %d: pre-scale %v, target %v", i, r.PreScale, r.Target)
		}
		if i > 0 && rows[i-1].Target < r.Target {
			t.Error("rows not sorted by descending target")
		}
		if len(r.Group) != 2 {
			t.Errorf("group rendering %v", r.Group)
		}
	}
	if totalActual != 500 {
		t.Errorf("actual total %d, want 500", totalActual)
	}
	if totalPop != 10000 {
		t.Errorf("population total %d", totalPop)
	}
}

// TestSynopsesListing pins Warehouse.Synopses against values recorded
// when the listing still read the stratified sample instead of the
// Strata view: the size and stratum count of a House, Senate and
// Congress synopsis after the build, with inserts pending, and after
// the refresh that surfaces them (six new finest groups). A refreshed
// Congress sample's size is not reproducible run to run, so there the
// listing must equal the published sample relation.
func TestSynopsesListing(t *testing.T) {
	type listing struct{ size, strata int }
	for _, tc := range []struct {
		strategy                Strategy
		built, pending, refresh listing
	}{
		{House, listing{1400, 27}, listing{1400, 27}, listing{1400, 33}},
		{Senate, listing{1400, 27}, listing{1400, 27}, listing{1194, 33}},
		{Congress, listing{1400, 27}, listing{1400, 27}, listing{-1, 33}},
	} {
		w := Open()
		rel, err := tpcd.Generate(tpcd.Params{TableSize: 20_000, NumGroups: 27, GroupSkew: 0.86, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AttachRelation(rel); err != nil {
			t.Fatal(err)
		}
		if err := w.BuildSynopsis(SynopsisSpec{
			Table: "lineitem", GroupBy: tpcd.GroupingAttrs, Space: 1400, Strategy: tc.strategy, Seed: 5,
		}); err != nil {
			t.Fatal(err)
		}
		check := func(stage string, want listing, pending int64) {
			t.Helper()
			got := w.Synopses()
			if len(got) != 1 {
				t.Fatalf("%v %s: %d synopses", tc.strategy, stage, len(got))
			}
			if want.size < 0 {
				res, err := w.Query("select count(*) from cs_lineitem")
				if err != nil {
					t.Fatal(err)
				}
				want.size = int(res.Rows[0][0].I)
			}
			s := got[0]
			if s.Table != "lineitem" || s.Strategy != tc.strategy.String() || s.Space != 1400 || s.Shards != 0 ||
				s.SampleSize != want.size || s.Strata != want.strata || s.PendingInserts != pending {
				t.Errorf("%v %s: %+v, want size %d, strata %d, pending %d", tc.strategy, stage, s, want.size, want.strata, pending)
			}
		}
		check("built", tc.built, 0)
		tbl, err := w.Table("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			if err := tbl.Insert(I(int64(9_000_000+i)), I(int64(i%3)), I(int64(i%2)), D("1999-01-01"), F(1), F(2)); err != nil {
				t.Fatal(err)
			}
		}
		check("pending", tc.pending, 60)
		if err := w.RefreshSynopsis("lineitem"); err != nil {
			t.Fatal(err)
		}
		check("refreshed", tc.refresh, 0)
	}
}

func TestTargetGroupingsViaFacade(t *testing.T) {
	w, _ := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 400,
		TargetGroupings: [][]string{{"region"}, {}}, // region group-bys and the grand total
		Seed:            8,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := w.Approx(`select region, sum(amount) from sales group by region`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("regions %v", res.Rows)
	}
}

func TestTableErrors(t *testing.T) {
	w := Open()
	if _, err := w.Table("ghost"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := w.CreateTable("bad", Col("x", Int), Col("x", Int)); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := w.BuildSynopsis(SynopsisSpec{Table: "ghost", GroupBy: []string{"x"}, Space: 10}); err == nil {
		t.Error("synopsis on unknown table accepted")
	}
	if err := w.RefreshSynopsis("ghost"); err == nil {
		t.Error("refresh on unknown synopsis accepted")
	}
	if _, err := w.Approx("select 1"); err == nil {
		t.Error("approx without FROM accepted")
	}
}
