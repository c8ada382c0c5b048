package congress

// This file is the paper's benchmark harness: one benchmark per table
// and figure of the evaluation (Section 7), plus the Figure 5
// allocation example and Figure 3/4 demonstration. Accuracy benchmarks
// report the figure's metric (mean percent error) via ReportMetric in
// addition to wall-clock time; timing benchmarks reproduce Table 3 and
// Figure 18 directly as Go benchmark time.
//
// The benchmarks run on a scaled-down table (default 60K rows, override
// with -congress.rows) so `go test -bench=.` completes in minutes; the
// cmd/experiments binary runs the same code at paper scale.

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/approxdb/congress/internal/aqua"
	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/metrics"
	"github.com/approxdb/congress/internal/rewrite"
	"github.com/approxdb/congress/internal/sqlparse"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/internal/workload"
)

var benchRows = flag.Int("congress.rows", 60_000, "table size for paper benchmarks")

// benchParams returns the scaled Table 1 defaults used by the accuracy
// benchmarks.
func benchParams() workload.Params {
	return workload.Params{
		TableSize:  *benchRows,
		SamplePct:  7,
		NumGroups:  1000,
		Skew:       1.5,
		Qg0Queries: 20,
		Seed:       1,
	}
}

// The testbed is expensive (data generation dominates); build it once
// per parameter set and share across benchmarks.
var (
	tbOnce sync.Once
	tbMain *workload.Testbed
	tbErr  error
)

func mainTestbed(b *testing.B) *workload.Testbed {
	b.Helper()
	tbOnce.Do(func() {
		tbMain, tbErr = workload.NewTestbed(benchParams(), core.Strategies)
	})
	if tbErr != nil {
		b.Fatal(tbErr)
	}
	return tbMain
}

// BenchmarkFigure5Allocation benchmarks the Congress allocation
// computation itself on the paper's Figure 5 distribution (10K tuples,
// 4 groups, 2 grouping attributes).
func BenchmarkFigure5Allocation(b *testing.B) {
	cube := datacube.MustNew([]string{"A", "B"})
	add := func(a, bb string, n int) {
		id := datacube.GroupID{a, bb}
		for i := 0; i < n; i++ {
			cube.Add(id)
		}
	}
	add("a1", "b1", 3000)
	add("a1", "b2", 3000)
	add("a1", "b3", 1500)
	add("a2", "b3", 2500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Allocate(core.Congress, cube, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3TPCDQ1 reproduces the Figure 3/4 demonstration: the
// simplified TPC-D Query 1 answered from a 1% uniform sample with error
// bounds. The benchmark measures approximate-answer latency.
func BenchmarkFigure3TPCDQ1(b *testing.B) {
	rel := tpcd.MustGenerate(tpcd.Params{
		TableSize: *benchRows, NumGroups: 8, GroupSkew: 1.5, Seed: 1,
	})
	cat := engine.NewCatalog()
	cat.Register(rel)
	a := aqua.New(cat)
	if _, err := a.CreateSynopsis(aqua.Config{
		Table: "lineitem", GroupCols: tpcd.GroupingAttrs,
		Strategy: core.House, Space: *benchRows / 100,
		WithErrorColumns: true, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
	q := `select l_returnflag, l_linestatus, sum(l_quantity)
		from lineitem where l_shipdate <= '1998-09-01'
		group by l_returnflag, l_linestatus`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}

// accuracyBench runs one Figure 14/15/16 cell: answer the query from
// strategy's synopsis each iteration and report the figure's error
// metric.
func accuracyBench(b *testing.B, strat core.Strategy, query string, groupCols int) {
	tb := mainTestbed(b)
	a := tb.ByStrategy[strat]
	exact, err := a.Exact(query)
	if err != nil {
		b.Fatal(err)
	}
	var lastErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		approx, err := a.Answer(query)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ge, err := metrics.CompareAnswers(exact, approx, groupCols, groupCols)
		if err != nil {
			b.Fatal(err)
		}
		lastErr = ge.L1()
		b.StartTimer()
	}
	b.ReportMetric(lastErr, "pct-err")
}

// BenchmarkFigure14_Qg0Error regenerates Figure 14: error on the
// no-group-by query set, per allocation strategy.
func BenchmarkFigure14_Qg0Error(b *testing.B) {
	tb := mainTestbed(b)
	for _, strat := range core.Strategies {
		b.Run(strat.String(), func(b *testing.B) {
			a := tb.ByStrategy[strat]
			rng := rand.New(rand.NewSource(99))
			queries := workload.Qg0Set(tb.Params, rng)
			exacts := make([]float64, len(queries))
			for i, q := range queries {
				res, err := a.Exact(q)
				if err != nil {
					b.Fatal(err)
				}
				exacts[i], _ = res.Rows[0][0].AsFloat()
			}
			var meanErr float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				approx, err := a.Answer(q)
				if err != nil {
					b.Fatal(err)
				}
				av, _ := approx.Rows[0][0].AsFloat()
				meanErr += metrics.RelativeErrorPct(exacts[i%len(queries)], av)
			}
			b.ReportMetric(meanErr/float64(b.N), "pct-err")
		})
	}
}

// BenchmarkFigure15_Qg3Error regenerates Figure 15: error on the finest
// grouping, per allocation strategy.
func BenchmarkFigure15_Qg3Error(b *testing.B) {
	for _, strat := range core.Strategies {
		b.Run(strat.String(), func(b *testing.B) {
			accuracyBench(b, strat, workload.Qg3, 3)
		})
	}
}

// BenchmarkFigure16_Qg2Error regenerates Figure 16: error on the
// two-column grouping, per allocation strategy.
func BenchmarkFigure16_Qg2Error(b *testing.B) {
	for _, strat := range core.Strategies {
		b.Run(strat.String(), func(b *testing.B) {
			accuracyBench(b, strat, workload.Qg2, 2)
		})
	}
}

// BenchmarkFigure17_SampleSize regenerates Figure 17: Congress Q_g2
// error as the sample grows (z = 0.86).
func BenchmarkFigure17_SampleSize(b *testing.B) {
	for _, sp := range []float64{1, 5, 10, 20, 50} {
		b.Run(fmt.Sprintf("SP=%.0f%%", sp), func(b *testing.B) {
			p := benchParams()
			p.Skew = 0.86
			p.SamplePct = sp
			tb, err := workload.NewTestbed(p, []core.Strategy{core.Congress})
			if err != nil {
				b.Fatal(err)
			}
			a := tb.ByStrategy[core.Congress]
			exact, err := a.Exact(workload.Qg2)
			if err != nil {
				b.Fatal(err)
			}
			var lastErr float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				approx, err := a.Answer(workload.Qg2)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				ge, err := metrics.CompareAnswers(exact, approx, 2, 2)
				if err != nil {
					b.Fatal(err)
				}
				lastErr = ge.L1()
				b.StartTimer()
			}
			b.ReportMetric(lastErr, "pct-err")
		})
	}
}

// rewriteBenchTestbed builds one Congress synopsis at the given SP/NG
// for the Table 3 / Figure 18 timing benchmarks.
func rewriteBenchTestbed(b *testing.B, samplePct float64, numGroups int) *aqua.Aqua {
	b.Helper()
	p := benchParams()
	p.Skew = 0.86
	p.SamplePct = samplePct
	p.NumGroups = numGroups
	tb, err := workload.NewTestbed(p, []core.Strategy{core.Congress})
	if err != nil {
		b.Fatal(err)
	}
	return tb.ByStrategy[core.Congress]
}

// runRewriteBench times execution of the Q_g2 rewrite under one
// strategy (parse and rewrite once, execute per iteration — matching
// the paper's repeated-execution timing protocol).
func runRewriteBench(b *testing.B, a *aqua.Aqua, strat rewrite.Strategy) {
	b.Helper()
	sqlText, err := a.RewriteOnly(workload.Qg2, strat)
	if err != nil {
		b.Fatal(err)
	}
	stmt, err := sqlparse.Parse(sqlText)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(a.Catalog(), stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3_RewriteBySampleSize regenerates Table 3: each rewrite
// strategy's Q_g2 time at 1%, 5%, and 10% samples (NG = 1000).
func BenchmarkTable3_RewriteBySampleSize(b *testing.B) {
	for _, sp := range []float64{1, 5, 10} {
		a := rewriteBenchTestbed(b, sp, 1000)
		for _, strat := range rewrite.Strategies {
			b.Run(fmt.Sprintf("SP=%.0f%%/%s", sp, strat), func(b *testing.B) {
				runRewriteBench(b, a, strat)
			})
		}
		b.Run(fmt.Sprintf("SP=%.0f%%/Exact", sp), func(b *testing.B) {
			stmt := sqlparse.MustParse(workload.Qg2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Execute(a.Catalog(), stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure18_RewriteByGroupCount regenerates Figure 18: each
// rewrite strategy's Q_g2 time as the number of groups grows (SP = 7%).
func BenchmarkFigure18_RewriteByGroupCount(b *testing.B) {
	for _, ng := range []int{10, 100, 1000, 10000} {
		a := rewriteBenchTestbed(b, 7, ng)
		for _, strat := range rewrite.Strategies {
			b.Run(fmt.Sprintf("NG=%d/%s", ng, strat), func(b *testing.B) {
				runRewriteBench(b, a, strat)
			})
		}
	}
}

// BenchmarkMaintenanceInsert measures the Section 6 maintainers'
// per-insert cost (the paper claims O(1) amortized for House/Senate and
// O(2^|G|) bookkeeping for Congress).
func BenchmarkMaintenanceInsert(b *testing.B) {
	schema := tpcd.Schema()
	g := core.MustGrouping(schema, tpcd.GroupingAttrs)
	rows := tpcd.MustGenerate(tpcd.Params{TableSize: 100_000, NumGroups: 1000, Seed: 2}).Rows()
	makeMaintainers := func() map[string]core.Maintainer {
		rng := rand.New(rand.NewSource(3))
		hm, _ := core.NewHouseMaintainer(g, 5000, rng)
		sm, _ := core.NewSenateMaintainer(g, 5000, rng)
		bm, _ := core.NewBasicCongressMaintainer(g, 5000, rng)
		cm, _ := core.NewCongressMaintainer(g, 5000, rng)
		dm, _ := core.NewCongressDeltaMaintainer(g, 5000, rng)
		return map[string]core.Maintainer{
			"House": hm, "Senate": sm, "BasicCongress": bm,
			"CongressEq8": cm, "CongressDelta": dm,
		}
	}
	for _, name := range []string{"House", "Senate", "BasicCongress", "CongressEq8", "CongressDelta"} {
		b.Run(name, func(b *testing.B) {
			m := makeMaintainers()[name]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Insert(rows[i%len(rows)])
			}
		})
	}
}

// BenchmarkAblationVarianceAware compares Congress with and without the
// Section 8 Neyman variance vector on data whose groups have equal sizes
// but very unequal variances — the setting the extension targets. The
// reported metric is the mean per-group error of an AVG query.
func BenchmarkAblationVarianceAware(b *testing.B) {
	// Build a relation with 20 equal-size groups; half have 100x the
	// value spread of the other half.
	rel := engine.NewRelation("t", engine.MustSchema(
		engine.Column{Name: "g", Kind: engine.KindInt},
		engine.Column{Name: "v", Kind: engine.KindFloat},
	))
	rng := rand.New(rand.NewSource(8))
	const perGroup = 2000
	for gi := 0; gi < 20; gi++ {
		spread := 1.0
		if gi%2 == 0 {
			spread = 100
		}
		for i := 0; i < perGroup; i++ {
			rel.Insert(engine.Row{
				engine.NewInt(int64(gi)),
				engine.NewFloat(1000 + rng.NormFloat64()*spread),
			})
		}
	}
	for _, variance := range []bool{false, true} {
		name := "plain"
		varCol := ""
		if variance {
			name = "neyman"
			varCol = "v"
		}
		b.Run(name, func(b *testing.B) {
			q := "select g, avg(v) from t group by g"
			cat := engine.NewCatalog()
			cat.Register(rel)
			exact, err := engine.ExecuteSQL(cat, q)
			if err != nil {
				b.Fatal(err)
			}
			// A single sample draw is noisy; rebuild the synopsis with
			// a fresh seed each iteration and report the mean error so
			// the ablation compares expected accuracy.
			var sumErr float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := aqua.New(cat)
				if _, err := a.CreateSynopsis(aqua.Config{
					Table: "t", GroupCols: []string{"g"},
					Strategy: core.Congress, Space: 800,
					VarianceColumn: varCol, Seed: int64(i + 1),
				}); err != nil {
					b.Fatal(err)
				}
				approx, err := a.Answer(q)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				ge, err := metrics.CompareAnswers(exact, approx, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				sumErr += ge.L1()
				b.StartTimer()
			}
			b.ReportMetric(sumErr/float64(b.N), "pct-err")
		})
	}
}

// BenchmarkAblationAllocationStrategies reports the pure allocation cost
// of each strategy at a realistic group count (the Congress max over
// 2^|G| groupings vs House's single pass).
func BenchmarkAblationAllocationStrategies(b *testing.B) {
	rel := tpcd.MustGenerate(tpcd.Params{TableSize: 50_000, NumGroups: 1000, Seed: 6})
	g := core.MustGrouping(rel.Schema, tpcd.GroupingAttrs)
	cube, err := core.BuildCube(rel, g, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range core.Strategies {
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Allocate(strat, cube, 3500); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationUpdateCost quantifies the Section 5.2 maintenance
// tradeoff the paper names but does not measure: refreshing one group's
// scale factor touches every sampled tuple of the group under the
// Integrated layout, but exactly one auxiliary row under the Normalized
// layouts. The rows-touched metric makes the asymmetry explicit.
func BenchmarkAblationUpdateCost(b *testing.B) {
	cat := engine.NewCatalog()
	rel := tpcd.MustGenerate(tpcd.Params{TableSize: 50_000, NumGroups: 27, GroupSkew: 1.2, Seed: 12})
	cat.Register(rel)
	a := aqua.New(cat)
	syn, err := a.CreateSynopsis(aqua.Config{
		Table: "lineitem", GroupCols: tpcd.GroupingAttrs,
		Strategy: core.Congress, Space: 3500, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var key string
	biggest := 0
	for _, r := range syn.Strata().Ranges() {
		if r.Hi-r.Lo > biggest {
			biggest = r.Hi - r.Lo
			key = r.Key
		}
	}
	for _, strat := range []rewrite.Strategy{rewrite.Integrated, rewrite.Normalized, rewrite.KeyNormalized} {
		b.Run(strat.String(), func(b *testing.B) {
			touched := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := a.UpdateScaleFactor("lineitem", strat, key, float64(10+i))
				if err != nil {
					b.Fatal(err)
				}
				touched = n
			}
			b.ReportMetric(float64(touched), "rows-touched")
		})
	}
}

// BenchmarkMaintenanceDrift runs the Section 6 drift experiment (Expt M
// in EXPERIMENTS.md) and reports the stale-vs-maintained error gap.
func BenchmarkMaintenanceDrift(b *testing.B) {
	p := workload.Params{
		TableSize: 12_000, SamplePct: 7, NumGroups: 27, Skew: 1.2, Seed: 5,
	}
	var stale, maintained float64
	for i := 0; i < b.N; i++ {
		rows, err := workload.MaintenanceExperiment(p, 2)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		stale = last.StaleErr
		maintained = last.Eq8Err
	}
	b.ReportMetric(stale, "stale-pct-err")
	b.ReportMetric(maintained, "maintained-pct-err")
}

// BenchmarkParallelBuild times one-pass construction (cube, Congress
// allocation, bottom-k materialization) at 1, 2 and 4 workers. The
// sample is the same at every worker count, so the arms differ only in
// speed, which tracks available cores. Run with
// -congress.rows=1000000 for the ≥1M-row comparison.
func BenchmarkParallelBuild(b *testing.B) {
	rel := tpcd.MustGenerate(tpcd.Params{TableSize: *benchRows, NumGroups: 1000, GroupSkew: 0.86, Seed: 4})
	g := core.MustGrouping(rel.Schema, tpcd.GroupingAttrs)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildOnce(b, rel, g, core.Congress, *benchRows/20, workers)
			}
		})
	}
}

// buildOnce runs the one-pass construction a synopsis build runs.
func buildOnce(b *testing.B, rel *engine.Relation, g *core.Grouping, strat core.Strategy, space, workers int) {
	cube, err := core.BuildCube(rel, g, workers)
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := core.Allocate(strat, cube, space)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.Materialize(rel, g, cube, alloc, 5, workers); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEstimateDirect guards the Estimate hot path: the grouping
// column and aggregate column indices are resolved once per call, not
// once per sampled row, so a wide schema does not slow the per-row
// loop.
func BenchmarkEstimateDirect(b *testing.B) {
	w := Open()
	cols := make([]engine.Column, 0, 26)
	cols = append(cols, Col("region", String), Col("product", String))
	for i := 0; i < 23; i++ {
		cols = append(cols, Col(fmt.Sprintf("pad%02d", i), Float))
	}
	cols = append(cols, Col("amount", Float))
	tbl, err := w.CreateTable("wide", cols...)
	if err != nil {
		b.Fatal(err)
	}
	regions := []string{"east", "west", "north", "south"}
	products := []string{"pen", "ink", "desk"}
	pad := make([]Value, 23)
	for i := range pad {
		pad[i] = F(float64(i))
	}
	for i := 0; i < 20_000; i++ {
		row := make([]Value, 0, 26)
		row = append(row, Str(regions[i%len(regions)]), Str(products[i%len(products)]))
		row = append(row, pad...)
		row = append(row, F(float64(i%100)))
		if err := tbl.Insert(row...); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "wide", GroupBy: []string{"region", "product"}, Space: 1200, Seed: 3,
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Estimate("wide", []string{"region", "product"}, Sum, "amount", 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynopsisConstruction measures end-to-end one-pass synopsis
// construction (cube + allocation + materialization) per strategy.
func BenchmarkSynopsisConstruction(b *testing.B) {
	rel := tpcd.MustGenerate(tpcd.Params{TableSize: *benchRows, NumGroups: 1000, GroupSkew: 0.86, Seed: 4})
	g := core.MustGrouping(rel.Schema, tpcd.GroupingAttrs)
	for _, strat := range core.Strategies {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buildOnce(b, rel, g, strat, *benchRows/20, 1)
			}
		})
	}
}
