package aqua

import (
	"math"
	"testing"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/tpcd"
)

// TestErrorBoundCoverage checks Aqua's 90%-confidence error columns
// end-to-end for SUM, COUNT and AVG at the finest grouping (125
// groups): across many independently built 10 % Congress synopses, the
// exact per-group answer should fall within estimate ± bound in roughly
// 90% of cases (we assert >= 80% to leave slack for the CLT
// approximation on strata of ~16 sampled rows, near the ~17 of the
// paper's Table 3 defaults). One statement per trial carries all three
// aggregates.
func TestErrorBoundCoverage(t *testing.T) {
	cat := engine.NewCatalog()
	rel := tpcd.MustGenerate(tpcd.Params{
		TableSize: 20000, NumGroups: 125, GroupSkew: 0.86, Seed: 3,
	})
	cat.Register(rel)

	q := `select l_returnflag, l_linestatus, l_shipdate,
			sum(l_quantity), count(*), avg(l_quantity)
		from lineitem group by l_returnflag, l_linestatus, l_shipdate`
	const nGroup, nAgg = 3, 3
	aggNames := [nAgg]string{"SUM", "COUNT", "AVG"}
	key := func(row engine.Row) string {
		return row[0].String() + "|" + row[1].String() + "|" + row[2].String()
	}
	exact, err := engine.ExecuteSQL(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Rows) < 100 {
		t.Fatalf("%d finest groups, want >= 100", len(exact.Rows))
	}
	exactByKey := map[string][nAgg]float64{}
	for _, row := range exact.Rows {
		var vals [nAgg]float64
		for i := range vals {
			vals[i], _ = row[nGroup+i].AsFloat()
		}
		exactByKey[key(row)] = vals
	}

	var covered, total [nAgg]int
	for trial := 0; trial < 40; trial++ {
		a := New(cat)
		if _, err := a.CreateSynopsis(Config{
			Table: "lineitem", GroupCols: tpcd.GroupingAttrs,
			Strategy: core.Congress, Space: 2000,
			WithErrorColumns: true, Seed: int64(trial + 1),
		}); err != nil {
			t.Fatal(err)
		}
		approx, err := a.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		// Columns: the three grouping columns, the three estimates, then
		// error1..error3 in the same order.
		for _, row := range approx.Rows {
			ev, ok := exactByKey[key(row)]
			if !ok {
				t.Fatalf("group %q is not in the exact answer", key(row))
			}
			for i := 0; i < nAgg; i++ {
				est, ok1 := row[nGroup+i].AsFloat()
				bound, ok2 := row[nGroup+nAgg+i].AsFloat()
				if !ok1 || !ok2 {
					t.Fatalf("%s group %q: estimate %v, bound %v", aggNames[i], key(row), row[nGroup+i], row[nGroup+nAgg+i])
				}
				total[i]++
				if math.Abs(est-ev[i]) <= bound {
					covered[i]++
				}
			}
		}
	}
	for i, name := range aggNames {
		rate := float64(covered[i]) / float64(total[i])
		t.Logf("%s: 90%% bounds covered %.3f of %d group-trials", name, rate, total[i])
		if rate < 0.80 {
			t.Errorf("%s: 90%% bounds covered only %.0f%% of %d group-trials", name, rate*100, total[i])
		}
	}
}
