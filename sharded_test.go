package congress

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/approxdb/congress/internal/tpcd"
)

// relDiff returns |a-b| / max(|a|,|b|,1).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return d / m
}

// TestShardedDifferentialTPCD is the acceptance differential: with a
// fully enumerated synopsis (space ≥ table size, so every stratum is
// exact on both sides), a sharded warehouse at K ∈ {2, 4, 8} must
// return identical SUM/COUNT/AVG estimates to a single warehouse over
// the same TPC-D data, for every grouping granularity — and identical
// (zero) bounds, since variance addition over exact partials stays
// exact.
func TestShardedDifferentialTPCD(t *testing.T) {
	rel, err := tpcd.Generate(tpcd.Params{TableSize: 20_000, NumGroups: 27, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	single := Open()
	single.AttachRelation(rel)
	spec := SynopsisSpec{
		Table:   rel.Name,
		GroupBy: tpcd.GroupingAttrs,
		Space:   2 * 20_000, // ≥ every shard's row count → full enumeration
		Seed:    7,
	}
	if err := single.BuildSynopsis(spec); err != nil {
		t.Fatal(err)
	}
	groupings := [][]string{
		{"l_returnflag"},
		{"l_returnflag", "l_linestatus"},
		tpcd.GroupingAttrs,
	}
	for _, k := range []int{2, 4, 8} {
		sw, err := OpenSharded(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.AttachRelation(rel, tpcd.GroupingAttrs); err != nil {
			t.Fatal(err)
		}
		if err := sw.BuildSynopsis(spec); err != nil {
			t.Fatal(err)
		}
		for _, grouping := range groupings {
			for _, agg := range []Aggregate{Sum, Count, Avg} {
				want, err := single.Estimate(rel.Name, grouping, agg, "l_quantity", 0.95)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sw.Estimate(rel.Name, grouping, agg, "l_quantity", 0.95)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("k=%d %v %v: %d groups, want %d", k, grouping, agg, len(got), len(want))
				}
				byKey := make(map[string]struct {
					v, b float64
					n    int
				}, len(want))
				for _, e := range want {
					byKey[e.Key] = struct {
						v, b float64
						n    int
					}{e.Value, e.Bound, e.SampleN}
				}
				for _, e := range got {
					w, ok := byKey[e.Key]
					if !ok {
						t.Fatalf("k=%d %v %v: sharded group %q missing from single", k, grouping, agg, e.Key)
					}
					if relDiff(e.Value, w.v) > 1e-9 {
						t.Errorf("k=%d %v %v %q: value %v != %v", k, grouping, agg, e.Key, e.Value, w.v)
					}
					if relDiff(e.Bound, w.b) > 1e-9 {
						t.Errorf("k=%d %v %v %q: bound %v != %v", k, grouping, agg, e.Key, e.Bound, w.b)
					}
					if e.SampleN != w.n {
						t.Errorf("k=%d %v %v %q: SampleN %d != %d", k, grouping, agg, e.Key, e.SampleN, w.n)
					}
				}
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedEstimateWithinBounds: under real (non-exhaustive) sampling
// the sharded answers cannot be bit-identical to an independent
// unsharded build, but the merged half-widths must still do their job:
// estimates stay within the 95% bound of the exact answer for the vast
// majority of groups.
func TestShardedEstimateWithinBounds(t *testing.T) {
	rel, err := tpcd.Generate(tpcd.Params{TableSize: 50_000, NumGroups: 27, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	exactW := Open()
	exactW.AttachRelation(rel)

	sw, err := OpenSharded(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AttachRelation(rel, tpcd.GroupingAttrs); err != nil {
		t.Fatal(err)
	}
	if err := sw.BuildSynopsis(SynopsisSpec{
		Table: rel.Name, GroupBy: tpcd.GroupingAttrs, Space: 6000, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	exact, err := exactW.Query(
		"select l_returnflag, sum(l_quantity), count(*), avg(l_quantity) from lineitem group by l_returnflag")
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[string][3]float64) // key → sum, count, avg
	for _, r := range exact.Rows {
		s, _ := r[1].AsFloat()
		c, _ := r[2].AsFloat()
		a, _ := r[3].AsFloat()
		truth[r[0].String()] = [3]float64{s, c, a}
	}
	checked, covered := 0, 0
	for ai, agg := range []Aggregate{Sum, Count, Avg} {
		ests, err := sw.Estimate(rel.Name, []string{"l_returnflag"}, agg, "l_quantity", 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != len(truth) {
			t.Fatalf("%v: %d groups, want %d", agg, len(ests), len(truth))
		}
		for _, e := range ests {
			tr, ok := truth[e.Key]
			if !ok {
				t.Fatalf("%v: unexpected group %q", agg, e.Key)
			}
			checked++
			if math.Abs(e.Value-tr[ai]) <= e.Bound {
				covered++
			}
		}
	}
	// 9 group×aggregate cells at 95% nominal; allow one miss.
	if covered < checked-1 {
		t.Errorf("only %d/%d estimates within their 95%% bounds", covered, checked)
	}
}

// TestShardedInsertRoutingLocality: every row lands on the shard its
// routing key maps to, whole groups stay together, and the router
// telemetry counts each shard's arrivals.
func TestShardedInsertRoutingLocality(t *testing.T) {
	sw, err := OpenSharded(4)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sw.CreateTable("sales", []string{"region"},
		Col("region", String), Col("amount", Float))
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"east", "west", "north", "south", "tiny"}
	perRegion := 40
	for i := 0; i < perRegion; i++ {
		for _, r := range regions {
			if err := tbl.Insert(Str(r), F(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := 0
	for i := 0; i < sw.NumShards(); i++ {
		st, err := sw.Shard(i).Table("sales")
		if err != nil {
			t.Fatal(err)
		}
		total += st.NumRows()
	}
	if total != perRegion*len(regions) {
		t.Fatalf("total rows %d", total)
	}
	var telTotal int64
	for i := 0; i < sw.NumShards(); i++ {
		telTotal += sw.ShardTelemetry().Inserts(i)
	}
	if telTotal != int64(perRegion*len(regions)) {
		t.Errorf("telemetry counted %d inserts, want %d", telTotal, perRegion*len(regions))
	}
	// Each region must live wholly on the shard the router names: its
	// home shard holds all perRegion rows, every other shard holds none.
	for _, r := range regions {
		home := tbl.RouteOf(Row{Str(r), F(0)})
		for i := 0; i < sw.NumShards(); i++ {
			res, err := sw.Shard(i).Query(
				fmt.Sprintf("select count(*) from sales where region = '%s'", r))
			if err != nil {
				t.Fatal(err)
			}
			c, _ := res.Rows[0][0].AsFloat()
			want := 0
			if i == home {
				want = perRegion
			}
			if int(c) != want {
				t.Errorf("region %q: %d rows on shard %d, want %d (home %d)", r, int(c), i, want, home)
			}
		}
	}
}

// TestShardedInsertMaintainsSynopsis: inserts after a build feed the
// home shard's maintainer; a sharded refresh surfaces them.
func TestShardedInsertMaintainsSynopsis(t *testing.T) {
	sw, err := OpenSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sw.CreateTable("sales", []string{"region"},
		Col("region", String), Col("amount", Float))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		region := fmt.Sprintf("r%d", i%5)
		if err := tbl.Insert(Str(region), F(float64(10+i%7))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region"}, Space: 1000, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// A brand-new group arrives post-build.
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(Str("fresh"), F(42)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.RefreshSynopsis("sales"); err != nil {
		t.Fatal(err)
	}
	ests, err := sw.Estimate("sales", []string{"region"}, Count, "amount", 0.90)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ests {
		if e.Key == "fresh" {
			found = true
			if math.Abs(e.Value-50) > e.Bound+1e-9 {
				t.Errorf("fresh group count %v ± %v, want 50 within bound", e.Value, e.Bound)
			}
		}
	}
	if !found {
		t.Error("post-build group missing from sharded estimate after refresh")
	}
}

// TestShardedEmptyShards: more shards than groups leaves some shards
// with no rows; the build skips them and estimation must tolerate the
// missing synopses while still erroring for a never-built table.
func TestShardedEmptyShards(t *testing.T) {
	sw, err := OpenSharded(8)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sw.CreateTable("sales", []string{"region"},
		Col("region", String), Col("amount", Float))
	if err != nil {
		t.Fatal(err)
	}
	// Two groups → at most two non-empty shards out of eight.
	for i := 0; i < 300; i++ {
		r := "east"
		if i%3 == 0 {
			r = "west"
		}
		if err := tbl.Insert(Str(r), F(float64(i%10))); err != nil {
			t.Fatal(err)
		}
	}
	// Estimating before any build must classify as ErrNoSynopsis.
	if _, err := sw.Estimate("sales", []string{"region"}, Sum, "amount", 0.90); !errors.Is(err, ErrNoSynopsis) {
		t.Fatalf("pre-build estimate error = %v, want ErrNoSynopsis", err)
	}
	if err := sw.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region"}, Space: 600, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	ests, err := sw.Estimate("sales", []string{"region"}, Count, "amount", 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 2 {
		t.Fatalf("%d groups, want 2", len(ests))
	}
	for _, e := range ests {
		want := 200.0
		if e.Key == "west" {
			want = 100
		}
		if math.Abs(e.Value-want) > 1e-9 {
			t.Errorf("group %q count %v, want %v (space ≥ rows → exact)", e.Key, e.Value, want)
		}
	}
	info := sw.Synopses()
	if len(info) != 1 {
		t.Fatalf("synopses: %v", info)
	}
	if info[0].Shards < 1 || info[0].Shards > 2 {
		t.Errorf("synopsis spans %d shards, want 1-2 (two groups)", info[0].Shards)
	}
}

// TestShardedSampleUnion: the whole-synopsis read returns the weighted
// union — populations add across shards and the per-group cap holds.
func TestShardedSampleUnion(t *testing.T) {
	sw, err := OpenSharded(4)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sw.CreateTable("sales", []string{"region"},
		Col("region", String), Col("amount", Float))
	if err != nil {
		t.Fatal(err)
	}
	perRegion := map[string]int{"a": 400, "b": 250, "c": 120, "d": 60, "e": 30}
	total := 0
	for r, n := range perRegion {
		total += n
		for i := 0; i < n; i++ {
			if err := tbl.Insert(Str(r), F(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region"}, Space: 2 * total, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	st, err := sw.Sample("sales", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if int(st.Population()) != total {
		t.Errorf("union population %d, want %d", st.Population(), total)
	}
	// Stratum keys are internal composite group keys; identify each
	// group by the region value carried in its tuples.
	seen := make(map[string]bool)
	for _, key := range st.Keys() {
		s, _ := st.Get(key)
		if len(s.Items) == 0 {
			t.Fatalf("stratum %q has no items", key)
		}
		r := s.Items[0][0].S
		n := perRegion[r]
		if n == 0 {
			t.Fatalf("unexpected region %q in union", r)
		}
		seen[r] = true
		if int(s.Population) != n || len(s.Items) != n {
			t.Errorf("group %q: pop %d items %d, want %d (fully enumerated)", r, s.Population, len(s.Items), n)
		}
	}
	if len(seen) != len(perRegion) {
		t.Errorf("union has %d groups, want %d", len(seen), len(perRegion))
	}
	capped, err := sw.Sample("sales", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range capped.Keys() {
		s, _ := capped.Get(key)
		if len(s.Items) > 50 {
			t.Errorf("stratum %q: %d items exceeds cap 50", key, len(s.Items))
		}
	}
}

// TestShardedConcurrentOps drives inserts, estimates and refreshes
// concurrently; meaningful under -race.
func TestShardedConcurrentOps(t *testing.T) {
	sw, err := OpenSharded(4)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := sw.CreateTable("sales", []string{"region"},
		Col("region", String), Col("amount", Float))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tbl.Insert(Str(fmt.Sprintf("r%d", i%8)), F(float64(i%13))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region"}, Space: 500, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := tbl.Insert(Str(fmt.Sprintf("r%d", i%8)), F(float64(g))); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := sw.EstimateQueryOpts(context.Background(), "sales",
					[]string{"region"}, Sum, "amount", 0.90, ApproxOptions{}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := sw.RefreshSynopsis("sales"); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestShardedValidation covers the error surface: bad shard counts,
// short rows, unknown tables, reserved-separator values.
func TestShardedValidation(t *testing.T) {
	if _, err := OpenSharded(0); err == nil {
		t.Error("0 shards accepted")
	}
	sw, err := OpenSharded(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Table("nope"); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("unknown table error = %v", err)
	}
	if _, err := sw.CreateTable("t", []string{"missing"}, Col("a", String)); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad routing column error = %v", err)
	}
	if _, err := sw.CreateTable("t", nil, Col("a", String)); !errors.Is(err, ErrBadQuery) {
		t.Errorf("empty routing key error = %v", err)
	}
	tbl, err := sw.CreateTable("t", []string{"b"}, Col("a", String), Col("b", String))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Str("only-a")); !errors.Is(err, ErrBadQuery) {
		t.Errorf("short row error = %v", err)
	}
	if err := sw.BuildSynopsis(SynopsisSpec{Table: "t", GroupBy: []string{"b"}, Space: 10}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("empty-table build error = %v", err)
	}
}

// TestSplitProportional: budgets divide by largest remainder, sum
// exactly, and zero-weight shards get zero.
func TestSplitProportional(t *testing.T) {
	cases := []struct {
		budget  int
		weights []int
		want    []int
	}{
		{10, []int{1, 1, 1}, []int{4, 3, 3}},
		{100, []int{3, 1, 0}, []int{75, 25, 0}},
		{7, []int{5, 5}, []int{4, 3}},
		{0, []int{2, 3}, []int{0, 0}},
	}
	for _, c := range cases {
		total := 0
		for _, w := range c.weights {
			total += w
		}
		got := splitProportional(c.budget, c.weights, total)
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != c.want[i] {
				t.Errorf("split(%d, %v) = %v, want %v", c.budget, c.weights, got, c.want)
				break
			}
		}
		if sum != c.budget {
			t.Errorf("split(%d, %v) sums to %d", c.budget, c.weights, sum)
		}
	}
}
