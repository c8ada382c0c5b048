package aqua

import (
	"math"
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/sample"
	"github.com/approxdb/congress/internal/tpcd"
)

// TestEstimatePathMatchesSQLPath cross-validates the two answering
// paths: the direct stratified estimator (internal/estimate) and the
// SQL path through Integrated rewriting must produce identical SUM,
// COUNT, and AVG values from the same sample — and, with error columns
// on, identical 90 % half-widths: every error column equals
// estimate.Run's Bound within 1e-9 relative, for every allocation
// strategy and for groupings from the coarsest to the finest.
func TestEstimatePathMatchesSQLPath(t *testing.T) {
	groupings := [][]string{
		{"l_returnflag"},
		{"l_returnflag", "l_linestatus"},
		tpcd.GroupingAttrs,
	}
	for _, strat := range []core.Strategy{core.House, core.Senate, core.BasicCongress, core.Congress} {
		cat := engine.NewCatalog()
		rel := tpcd.MustGenerate(tpcd.Params{TableSize: 20000, NumGroups: 27, GroupSkew: 1.2, Seed: 99})
		cat.Register(rel)
		a := New(cat)
		s, err := a.CreateSynopsis(Config{
			Table: "lineitem", GroupCols: tpcd.GroupingAttrs, Strategy: strat,
			Space: 1500, WithErrorColumns: true, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		qtyIdx := rel.Schema.Index("l_quantity")

		for _, cols := range groupings {
			idx := make([]int, len(cols))
			for i, c := range cols {
				idx[i] = rel.Schema.Index(c)
			}
			for _, agg := range []estimate.Aggregate{estimate.Sum, estimate.Count, estimate.Avg} {
				var sqlAgg string
				switch agg {
				case estimate.Sum:
					sqlAgg = "sum(l_quantity)"
				case estimate.Count:
					sqlAgg = "count(*)"
				default:
					sqlAgg = "avg(l_quantity)"
				}
				list := strings.Join(cols, ", ")
				res, err := a.Answer("select " + list + ", " + sqlAgg + " from lineitem group by " + list)
				if err != nil {
					t.Fatal(err)
				}
				type answer struct{ value, bound float64 }
				sqlVals := map[string]answer{}
				for _, row := range res.Rows {
					keys := make([]string, len(cols))
					for i := range cols {
						keys[i] = row[i].String()
					}
					v, _ := row[len(cols)].AsFloat()
					b, ok := row[len(cols)+1].AsFloat()
					if !ok {
						t.Fatalf("%v %v %v: error column %v", strat, cols, agg, row[len(cols)+1])
					}
					sqlVals[strings.Join(keys, "|")] = answer{v, b}
				}

				ests, err := estimate.Run(s.Sample(), estimate.Query{
					GroupKey: func(row engine.Row) string {
						keys := make([]string, len(idx))
						for i, c := range idx {
							keys[i] = row[c].String()
						}
						return strings.Join(keys, "|")
					},
					Value:      func(row engine.Row) (float64, bool) { return row[qtyIdx].AsFloat() },
					Agg:        agg,
					Confidence: 0.90,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(ests) != len(sqlVals) {
					t.Fatalf("%v %v %v: estimate path %d groups, SQL path %d", strat, cols, agg, len(ests), len(sqlVals))
				}
				for _, e := range ests {
					sv, ok := sqlVals[e.Key]
					if !ok {
						t.Fatalf("%v %v %v: group %q missing from SQL path", strat, cols, agg, e.Key)
					}
					if math.Abs(e.Value-sv.value) > 1e-6*math.Abs(sv.value)+1e-9 {
						t.Errorf("%v %v %v group %q: estimate %v vs SQL %v", strat, cols, agg, e.Key, e.Value, sv.value)
					}
					if math.Abs(e.Bound-sv.bound) > 1e-9*math.Max(math.Abs(e.Bound), math.Abs(sv.bound)) {
						t.Errorf("%v %v %v group %q: estimate bound %v vs SQL error column %v", strat, cols, agg, e.Key, e.Bound, sv.bound)
					}
				}
			}
		}
	}
}

// TestTargetGroupings checks the query-mix specialization: targeting
// only the {l_returnflag} grouping reproduces the S1 allocation for it
// and improves that query's accuracy budget relative to covering all
// groupings.
func TestTargetGroupings(t *testing.T) {
	cat := engine.NewCatalog()
	rel := tpcd.MustGenerate(tpcd.Params{TableSize: 20000, NumGroups: 27, GroupSkew: 1.2, Seed: 99})
	cat.Register(rel)
	a := New(cat)
	syn, err := a.CreateSynopsis(Config{
		Table:           "lineitem",
		GroupCols:       tpcd.GroupingAttrs,
		Space:           600,
		TargetGroupings: [][]string{{"l_returnflag"}},
		Seed:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// S1 for a single grouping needs no scale-down.
	if f := syn.Allocation().ScaleDown; math.Abs(f-1) > 1e-9 {
		t.Errorf("single-target scale-down %v, want 1", f)
	}
	// The S1 allocation gives each of the 3 flag groups ~X/3 = 200
	// sampled tuples (exact up to integer rounding and tiny-group caps).
	flagIdx2 := rel.Schema.Index("l_returnflag")
	perFlag := map[string]int{}
	syn.Sample().Each(func(str *sample.Stratum[engine.Row]) {
		if len(str.Items) == 0 {
			return
		}
		perFlag[str.Items[0][flagIdx2].String()] += len(str.Items)
	})
	if len(perFlag) != 3 {
		t.Fatalf("flag strata %v", perFlag)
	}
	for flag, n := range perFlag {
		if n < 190 || n > 210 {
			t.Errorf("flag %s holds %d tuples, want ~200", flag, n)
		}
	}
	res, err := a.Answer("select l_returnflag, sum(l_quantity) from lineitem group by l_returnflag")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("flag groups %d, want 3", len(res.Rows))
	}

	// Bad grouping names are rejected.
	if _, err := a.CreateSynopsis(Config{
		Table: "lineitem", GroupCols: tpcd.GroupingAttrs, Space: 100,
		TargetGroupings: [][]string{{"ghost"}},
	}); err == nil {
		t.Error("unknown target grouping accepted")
	}
}
