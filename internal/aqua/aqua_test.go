package aqua

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/metrics"
	"github.com/approxdb/congress/internal/rewrite"
	"github.com/approxdb/congress/internal/tpcd"
)

// newTestAqua generates a small skewed lineitem table and a Congress
// synopsis over it.
func newTestAqua(t testing.TB, strategy core.Strategy, space int) (*Aqua, *engine.Catalog) {
	t.Helper()
	cat := engine.NewCatalog()
	rel := tpcd.MustGenerate(tpcd.Params{
		TableSize: 20000,
		NumGroups: 27,
		GroupSkew: 1.2,
		Seed:      99,
	})
	cat.Register(rel)
	a := New(cat)
	if _, err := a.CreateSynopsis(Config{
		Table:     "lineitem",
		GroupCols: tpcd.GroupingAttrs,
		Strategy:  strategy,
		Space:     space,
		Seed:      5,
	}); err != nil {
		t.Fatal(err)
	}
	return a, cat
}

const qg2 = `select l_returnflag, l_linestatus, sum(l_quantity)
	from lineitem group by l_returnflag, l_linestatus`

func TestCreateSynopsisValidation(t *testing.T) {
	cat := engine.NewCatalog()
	a := New(cat)
	if _, err := a.CreateSynopsis(Config{Table: "nope", GroupCols: []string{"x"}, Space: 10}); err == nil {
		t.Error("unknown table accepted")
	}
	rel := engine.NewRelation("t", engine.MustSchema(engine.Column{Name: "a", Kind: engine.KindInt}))
	rel.Insert(engine.Row{engine.NewInt(1)})
	cat.Register(rel)
	if _, err := a.CreateSynopsis(Config{Table: "t", GroupCols: []string{"zzz"}, Space: 10}); err == nil {
		t.Error("bad grouping column accepted")
	}
	if _, err := a.CreateSynopsis(Config{Table: "t", GroupCols: []string{"a"}, Space: 0}); err == nil {
		t.Error("zero space accepted")
	}
}

func TestSynopsisRelationsRegistered(t *testing.T) {
	a, cat := newTestAqua(t, core.Congress, 2000)
	// One sample relation and two aux relations, after build, refresh
	// and restore alike.
	want := fmt.Sprint([]string{"cs_lineitem", "csk_lineitem_aux", "csn_lineitem_aux", "lineitem"})
	if got := fmt.Sprint(cat.Names()); got != want {
		t.Errorf("after build the catalog holds %s, want %s", got, want)
	}
	s, ok := a.Synopsis("LINEITEM")
	if !ok {
		t.Fatal("synopsis lookup is not case-insensitive")
	}
	if s.Strata().Relation().NumRows() == 0 || s.Allocation() == nil || s.Grouping() == nil || s.Maintainer() == nil {
		t.Error("synopsis accessors incomplete")
	}
	// Integrated sample relation has exactly the budgeted tuples.
	cs, _ := cat.Lookup("cs_lineitem")
	if cs.NumRows() != 2000 {
		t.Errorf("cs_lineitem rows %d, want 2000", cs.NumRows())
	}
	// Aux relations have one row per non-empty stratum.
	aux, _ := cat.Lookup("csn_lineitem_aux")
	if aux.NumRows() == 0 || aux.NumRows() > 27 {
		t.Errorf("aux rows %d", aux.NumRows())
	}
	if err := a.Refresh("lineitem"); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(cat.Names()); got != want {
		t.Errorf("after refresh the catalog holds %s, want %s", got, want)
	}
	st, err := s.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := cat.Lookup("lineitem")
	restored := engine.NewCatalog()
	restored.Register(base)
	if _, err := New(restored).RestoreSynopsis(st); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(restored.Names()); got != want {
		t.Errorf("after restore the catalog holds %s, want %s", got, want)
	}
}

// TestAllRewriteStrategiesAgree is the key correctness test of the
// Section 5 implementation: all four rewrites of the same query over the
// same sample must produce identical answers.
func TestAllRewriteStrategiesAgree(t *testing.T) {
	a, _ := newTestAqua(t, core.Congress, 2000)
	type keyed map[string][]float64
	collect := func(strat rewrite.Strategy) keyed {
		res, err := a.AnswerWith(qg2, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		out := keyed{}
		for _, row := range res.Rows {
			k := row[0].String() + "|" + row[1].String()
			v, _ := row[2].AsFloat()
			out[k] = append(out[k], v)
		}
		return out
	}
	base := collect(rewrite.Integrated)
	if len(base) == 0 {
		t.Fatal("no groups returned")
	}
	for _, strat := range []rewrite.Strategy{rewrite.NestedIntegrated, rewrite.Normalized, rewrite.KeyNormalized} {
		got := collect(strat)
		if len(got) != len(base) {
			t.Fatalf("%v returned %d groups, Integrated %d", strat, len(got), len(base))
		}
		for k, want := range base {
			gv, ok := got[k]
			if !ok {
				t.Fatalf("%v missing group %s", strat, k)
			}
			if math.Abs(gv[0]-want[0]) > 1e-6*math.Abs(want[0])+1e-9 {
				t.Errorf("%v group %s = %v, Integrated %v", strat, k, gv[0], want[0])
			}
		}
	}
}

func TestApproximateAccuracy(t *testing.T) {
	a, _ := newTestAqua(t, core.Congress, 4000) // 20% sample
	exact, err := a.Exact(qg2)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := a.Answer(qg2)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := metrics.CompareAnswers(exact, approx, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ge.MissingGroups != 0 {
		t.Errorf("approximate answer missing %d groups", ge.MissingGroups)
	}
	if l1 := ge.L1(); l1 > 15 {
		t.Errorf("20%% congress sample mean error %.2f%%, expected well under 15%%", l1)
	}
}

func TestCongressBeatsHouseOnSmallGroups(t *testing.T) {
	qg3 := `select l_returnflag, l_linestatus, l_shipdate, sum(l_quantity)
		from lineitem group by l_returnflag, l_linestatus, l_shipdate`
	errFor := func(strategy core.Strategy) float64 {
		a, _ := newTestAqua(t, strategy, 1500)
		exact, err := a.Exact(qg3)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := a.Answer(qg3)
		if err != nil {
			t.Fatal(err)
		}
		ge, err := metrics.CompareAnswers(exact, approx, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		return ge.L1()
	}
	house := errFor(core.House)
	congress := errFor(core.Congress)
	if congress >= house {
		t.Errorf("Qg3 L1 error: congress %.2f%% vs house %.2f%% — congress should win on finest grouping", congress, house)
	}
}

func TestAnswerWithErrorColumns(t *testing.T) {
	cat := engine.NewCatalog()
	rel := tpcd.MustGenerate(tpcd.Params{TableSize: 5000, NumGroups: 8, Seed: 3})
	cat.Register(rel)
	a := New(cat)
	if _, err := a.CreateSynopsis(Config{
		Table: "lineitem", GroupCols: tpcd.GroupingAttrs,
		Strategy: core.Congress, Space: 500, WithErrorColumns: true, Seed: 4,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := a.Answer(`select l_returnflag, sum(l_quantity) from lineitem group by l_returnflag`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Columns {
		if strings.HasPrefix(c, "error") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no error column in %v", res.Columns)
	}
	for _, row := range res.Rows {
		if b, ok := row[len(row)-1].AsFloat(); !ok || b < 0 {
			t.Errorf("bad error bound %v", row[len(row)-1])
		}
	}
}

func TestRewriteOnly(t *testing.T) {
	a, _ := newTestAqua(t, core.Congress, 1000)
	s, err := a.RewriteOnly(qg2, rewrite.KeyNormalized)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "csk_lineitem") || !strings.Contains(s, "gid") {
		t.Errorf("rewritten SQL %q", s)
	}
}

func TestRouteErrors(t *testing.T) {
	a, _ := newTestAqua(t, core.Congress, 1000)
	if _, err := a.Answer("select sum(x) from unknown_table"); err == nil {
		t.Error("query on unknown table accepted")
	}
	if _, err := a.Answer("not sql"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := a.Answer("select sum(q) from (select 1 as q)"); err == nil {
		t.Error("subquery FROM accepted")
	}
	if err := a.Refresh("unknown"); err == nil {
		t.Error("refresh on unknown synopsis accepted")
	}
}

func TestMaintainAndRefresh(t *testing.T) {
	a, cat := newTestAqua(t, core.Congress, 1000)
	s, _ := a.Synopsis("lineitem")
	rel, _ := cat.Lookup("lineitem")

	// Simulate warehouse inserts: new tuples flow to both the base
	// table (by the loader) and the synopsis maintainer (by Aqua).
	newRows := tpcd.MustGenerate(tpcd.Params{TableSize: 5000, NumGroups: 27, Seed: 123}).Rows()
	for _, row := range newRows {
		rel.Insert(row)
		s.Insert(row)
	}
	// The maintainer was seeded with the 20000 existing rows at
	// creation, then saw the 5000 inserts.
	if s.Maintainer().SeenCount() != 25000 {
		t.Fatalf("maintainer saw %d inserts", s.Maintainer().SeenCount())
	}
	if err := a.Refresh("lineitem"); err != nil {
		t.Fatal(err)
	}
	// Post-refresh, the integrated relation reflects the maintained
	// sample and queries still work.
	res, err := a.Answer(qg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows after refresh")
	}
	// The maintained sample's population covers the whole relation:
	// the 20000 seeded rows plus the 5000 inserts.
	if p := population(s); p != 25000 {
		t.Errorf("maintained population %d, want 25000", p)
	}
}

func TestDeltaMaintenanceOption(t *testing.T) {
	cat := engine.NewCatalog()
	rel := tpcd.MustGenerate(tpcd.Params{TableSize: 5000, NumGroups: 8, Seed: 17})
	cat.Register(rel)
	a := New(cat)
	s, err := a.CreateSynopsis(Config{
		Table: "lineitem", GroupCols: tpcd.GroupingAttrs,
		Strategy: core.Congress, Space: 300, DeltaMaintenance: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Maintainer().(*core.CongressDeltaMaintainer); !ok {
		t.Fatalf("maintainer type %T, want CongressDeltaMaintainer", s.Maintainer())
	}
	// It was seeded with the table and refreshes cleanly.
	if err := a.Refresh("lineitem"); err != nil {
		t.Fatal(err)
	}
	if p := population(s); p != 5000 {
		t.Errorf("population %d", p)
	}
}

// population sums the base population of the synopsis's strata.
func population(s *Synopsis) int64 {
	var n int64
	for _, r := range s.Strata().Ranges() {
		n += r.Population
	}
	return n
}

func TestExactMatchesEngine(t *testing.T) {
	a, cat := newTestAqua(t, core.Congress, 500)
	r1, err := a.Exact("select count(*) from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := engine.ExecuteSQL(cat, "select count(*) from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].I != r2.Rows[0][0].I {
		t.Error("Exact diverges from engine")
	}
}

func TestAllocationTable(t *testing.T) {
	a, _ := newTestAqua(t, core.Congress, 1000)
	s, _ := a.Synopsis("lineitem")
	rows := s.AllocationTable()
	if len(rows) != 27 {
		t.Fatalf("allocation rows %d, want 27", len(rows))
	}
	total := 0
	for i, r := range rows {
		total += r.Actual
		if len(r.Group) != 3 && r.Actual > 0 {
			t.Errorf("row %d group %v", i, r.Group)
		}
		if i > 0 && rows[i-1].Target < r.Target {
			t.Error("not sorted by descending target")
		}
	}
	if total != 1000 {
		t.Errorf("actual total %d", total)
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	// Queries snapshot relations, so concurrent warehouse inserts and
	// approximate queries must not race (run under -race in CI).
	a, cat := newTestAqua(t, core.Congress, 500)
	s, _ := a.Synopsis("lineitem")
	rel, _ := cat.Lookup("lineitem")
	newRows := tpcd.MustGenerate(tpcd.Params{TableSize: 2000, NumGroups: 27, Seed: 55}).Rows()

	done := make(chan error, 2)
	go func() {
		for _, row := range newRows {
			rel.Insert(row)
			s.Insert(row)
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := a.Answer(qg2); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Refresh("lineitem"); err != nil {
		t.Fatal(err)
	}
}

func TestGIDStability(t *testing.T) {
	// GIDs are assigned in sorted stratum-key order; the keyed aux
	// relation must contain each gid exactly once.
	_, cat := newTestAqua(t, core.Congress, 1000)
	aux, _ := cat.Lookup("csk_lineitem_aux")
	seen := map[int64]bool{}
	var gids []int64
	for _, row := range aux.Rows() {
		id := row[0].I
		if seen[id] {
			t.Fatalf("duplicate gid %d", id)
		}
		seen[id] = true
		gids = append(gids, id)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for i, id := range gids {
		if id != int64(i+1) {
			t.Fatalf("gids not dense: %v", gids)
		}
	}
}
