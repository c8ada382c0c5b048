package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/shard"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/pkg/client"
)

// partitionedWarehouses splits rel across k plain warehouses the way a
// coordinator over k shards routes it (shard.Partition by routeBy). A
// warehouse whose part is empty holds the table and no rows.
func partitionedWarehouses(t testing.TB, rel *engine.Relation, k int, routeBy []string) []*congress.Warehouse {
	t.Helper()
	parts, err := shard.Partition(rel, routeBy, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*congress.Warehouse, k)
	for i, part := range parts {
		out[i] = congress.Open()
		if _, err := out[i].AttachRelation(part); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// buildShards builds spec on every non-empty shard, giving each the
// share of spec.Space its rows carry (so a space ≥ rows stays a full
// enumeration, and the shards' budgets sum to spec.Space) and its own
// seed. An empty shard gets no synopsis.
func buildShards(t testing.TB, shards []*congress.Warehouse, spec congress.SynopsisSpec) {
	t.Helper()
	rows := make([]int, len(shards))
	total := 0
	for i, w := range shards {
		tbl, err := w.Table(spec.Table)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = tbl.NumRows()
		total += rows[i]
	}
	for i, w := range shards {
		if rows[i] == 0 {
			continue
		}
		ss := spec
		ss.Space = spec.Space * rows[i] / total
		ss.Seed = spec.Seed + int64(i)
		if err := w.BuildSynopsis(ss); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}

// shardWarehouses partitions rel by spec.GroupBy across k warehouses and
// builds spec on each (see buildShards).
func shardWarehouses(t testing.TB, rel *engine.Relation, k int, spec congress.SynopsisSpec) []*congress.Warehouse {
	t.Helper()
	shards := partitionedWarehouses(t, rel, k, spec.GroupBy)
	buildShards(t, shards, spec)
	return shards
}

// testCoordinator serves a K-shard lineitem table with a sampled
// congressional synopsis (space rows/10) behind a coordinator.
func testCoordinator(t *testing.T, shards, rows, groups int) *congress.Coordinator {
	t.Helper()
	rel, err := tpcd.Generate(tpcd.Params{TableSize: rows, NumGroups: groups, GroupSkew: 0.86, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	co, _ := coordinatorOver(t, shardWarehouses(t, rel, shards, congress.SynopsisSpec{
		Table: "lineitem", GroupBy: tpcd.GroupingAttrs, Space: rows / 10, Seed: 1,
	}))
	return co
}

// salesRelation is a two-column table with n rows of region(i) and
// amount(i).
func salesRelation(t testing.TB, n int, region func(i int) string, amount func(i int) float64) *engine.Relation {
	t.Helper()
	rel := engine.NewRelation("sales", engine.MustSchema(
		engine.Column{Name: "region", Kind: engine.KindString},
		engine.Column{Name: "amount", Kind: engine.KindFloat}))
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = engine.Row{engine.NewString(region(i)), engine.NewFloat(amount(i))}
	}
	if err := rel.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestPartitionMatchesCoordinatorRouting: the one partition function
// that builds shard data (congressd -shard-index, the test fixtures)
// places every row on the shard the coordinator routes that row's
// inserts to, and loses or duplicates none.
func TestPartitionMatchesCoordinatorRouting(t *testing.T) {
	rel, err := tpcd.Generate(tpcd.Params{TableSize: 3000, NumGroups: 64, GroupSkew: 0.86, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 4} {
		parts, err := shard.Partition(rel, tpcd.GroupingAttrs, k)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([]*congress.Warehouse, k)
		total := 0
		for i, part := range parts {
			shards[i] = congress.Open()
			if _, err := shards[i].AttachRelation(part); err != nil {
				t.Fatal(err)
			}
			total += part.NumRows()
		}
		if total != rel.NumRows() {
			t.Fatalf("k=%d: parts hold %d rows, want %d", k, total, rel.NumRows())
		}
		buildShards(t, shards, congress.SynopsisSpec{Table: rel.Name, GroupBy: tpcd.GroupingAttrs, Space: 300, Seed: 2})
		co, _ := coordinatorOver(t, shards)
		ct, err := co.Table(rel.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range parts {
			for _, row := range part.Rows() {
				if got := ct.RouteOf(row); got != i {
					t.Fatalf("k=%d: row %v is on shard %d, the coordinator routes it to %d", k, row, i, got)
				}
			}
		}
	}
	if _, err := shard.Partition(rel, []string{"nope"}, 2); err == nil {
		t.Error("partition by an unknown column accepted")
	}
	if _, err := shard.Partition(rel, tpcd.GroupingAttrs, 0); err == nil {
		t.Error("partition into 0 shards accepted")
	}
}

func TestShardedServerEstimateFlow(t *testing.T) {
	_, c := testServer(t, Options{Coordinator: testCoordinator(t, 4, 5000, 27)})
	ctx := context.Background()

	// Default mode: every shard's exact datacube covers the request, so
	// the merged answer is hybrid-exact — zero-width bounds, no sampled
	// rows behind any group.
	res, err := c.Query(ctx, client.QueryRequest{Estimate: &client.EstimateRequest{
		Table: "lineitem", GroupBy: []string{"l_returnflag"},
		Agg: "avg", Column: "l_quantity", Confidence: 0.95,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("sharded estimate returned no groups")
	}
	for _, g := range res.Groups {
		if len(g.Group) != 1 {
			t.Errorf("group key %v, want one rendered value", g.Group)
		}
		if g.Bound != 0 || g.SampleN != 0 {
			t.Errorf("hybrid group %v: bound %v sample_n %d, want exact (0, 0)", g.Group, g.Bound, g.SampleN)
		}
	}
	// Sharded estimates always bypass the result cache.
	if res.Cache != "bypass" {
		t.Errorf("cache status %q, want bypass", res.Cache)
	}

	// no_hybrid forces the pure-sample estimator on every shard.
	res, err = c.Query(ctx, client.QueryRequest{
		NoHybrid: true,
		Estimate: &client.EstimateRequest{
			Table: "lineitem", GroupBy: []string{"l_returnflag"},
			Agg: "avg", Column: "l_quantity", Confidence: 0.95,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("pure-sample sharded estimate returned no groups")
	}
	for _, g := range res.Groups {
		if !(g.Bound >= 0) || g.SampleN <= 0 {
			t.Errorf("pure-sample group %v: bound %v sample_n %d", g.Group, g.Bound, g.SampleN)
		}
	}
}

func TestShardedServerInsertRefreshSynopsesMetrics(t *testing.T) {
	_, c := testServer(t, Options{Coordinator: testCoordinator(t, 4, 2000, 27)})
	ctx := context.Background()

	ins, err := c.Insert(ctx, client.InsertRequest{
		Table: "lineitem",
		Rows: [][]any{
			{int64(9_000_001), 0, 0, "1994-06-15", 7.0, 1200.0},
			{int64(9_000_002), 1, 1, "1994-07-15", 9.0, 1800.0},
		},
		Refresh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Inserted != 2 || !ins.Refreshed {
		t.Fatalf("insert response %+v", ins)
	}

	infos, err := c.Synopses(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("synopses: %+v", infos)
	}
	si := infos[0]
	if si.Table != "lineitem" || si.Shards < 1 || si.Shards > 4 {
		t.Errorf("synopsis info %+v", si)
	}
	if si.SampleSize == 0 || len(si.Allocation) == 0 {
		t.Errorf("merged synopsis listing empty: %+v", si)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"congress_distshard_count 4",
		`congress_distshard_inserts_total{shard="`,
		"congress_estimate_total",
		"server_requests_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestServerRequiresExactlyOneBackend(t *testing.T) {
	co, err := congress.NewCoordinator([]string{"http://127.0.0.1:1"}, congress.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Warehouse: congress.Open(), Coordinator: co}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", opts)
				}
			}()
			New(opts)
		}()
	}
}

// TestCoordinatorEmptyShards: more shards than groups leaves some shards
// with no rows and no synopsis. Estimation must skip them, and still
// classify a table no shard has built as ErrNoSynopsis.
func TestCoordinatorEmptyShards(t *testing.T) {
	ctx := context.Background()
	// Two groups → at most two non-empty shards out of eight.
	rel := salesRelation(t, 300,
		func(i int) string {
			if i%3 == 0 {
				return "west"
			}
			return "east"
		},
		func(i int) float64 { return float64(i % 10) })
	shards := partitionedWarehouses(t, rel, 8, []string{"region"})
	co, _ := coordinatorOver(t, shards)
	if _, err := co.Estimate("sales", []string{"region"}, congress.Sum, "amount", 0.90); !errors.Is(err, congress.ErrNoSynopsis) {
		t.Fatalf("pre-build estimate error = %v, want ErrNoSynopsis", err)
	}
	if err := co.RefreshSynopsis("sales"); !errors.Is(err, congress.ErrNoSynopsis) {
		t.Errorf("pre-build refresh error = %v, want ErrNoSynopsis", err)
	}
	buildShards(t, shards, congress.SynopsisSpec{Table: "sales", GroupBy: []string{"region"}, Space: 600, Seed: 2})
	if err := co.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	ests, err := co.Estimate("sales", []string{"region"}, congress.Count, "amount", 0.90)
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
	if err := co.RefreshSynopsis("sales"); err != nil {
		t.Errorf("refresh with empty shards: %v", err)
	}
	if _, err := co.AllocationTable("sales"); err != nil {
		t.Errorf("allocation with empty shards: %v", err)
	}
	info := co.Synopses()
	if len(info) != 1 {
		t.Fatalf("synopses: %v", info)
	}
	if info[0].Shards < 1 || info[0].Shards > 2 {
		t.Errorf("synopsis spans %d shards, want 1-2 (two groups)", info[0].Shards)
	}
}

// TestCoordinatorConcurrentOps drives routed inserts, estimates and
// refreshes through one coordinator concurrently; meaningful under
// -race.
func TestCoordinatorConcurrentOps(t *testing.T) {
	rel := salesRelation(t, 1000,
		func(i int) string { return fmt.Sprintf("r%d", i%8) },
		func(i int) float64 { return float64(i % 13) })
	co, _ := coordinatorOver(t, shardWarehouses(t, rel, 4, congress.SynopsisSpec{
		Table: "sales", GroupBy: []string{"region"}, Space: 500, Seed: 1,
	}))
	tbl, err := co.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := tbl.Insert(congress.Str(fmt.Sprintf("r%d", i%8)), congress.F(float64(g))); err != nil {
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
				if _, _, err := co.EstimateQueryOpts(context.Background(), "sales",
					[]string{"region"}, congress.Sum, "amount", 0.90, congress.ApproxOptions{}); err != nil {
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
			if err := co.RefreshSynopsis("sales"); err != nil {
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
	ests, err := co.Estimate("sales", []string{"region"}, congress.Count, "amount", 0.90)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, e := range ests {
		total += e.Value
	}
	// Every insert reached a cube or, refreshed, a sample whose strata
	// count their populations exactly.
	if math.Abs(total-1200) > 1e-6 {
		t.Errorf("merged count %v, want 1200", total)
	}
}

// forceNoHybrid rewrites the partials requests of every shard ordinal ≥
// *covered to ask for the pure sample, so only shards below *covered
// answer from their cubes.
func forceNoHybrid(covered *atomic.Int32) func(int, http.Handler) http.Handler {
	return func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/estimate/partials" && int32(i) >= covered.Load() {
				var req client.PartialsRequest
				body, _ := io.ReadAll(r.Body)
				if err := json.Unmarshal(body, &req); err == nil {
					req.NoHybrid = true
					body, _ = json.Marshal(req)
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				r.ContentLength = int64(len(body))
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestHybridShardedDifferential: a coordinator over K ∈ {2, 4} shards
// must reproduce the single warehouse's hybrid answers to 1e-9 — every
// shard holds a fresh cube, so the merged estimate is exact on both
// sides. A mixed-coverage merge (only j of K shards answering from
// their cubes, the rest from their samples) must shrink its half-width
// monotonically with j, reach zero at j = K, and count one hybrid
// residual per query for 0 < j < K.
func TestHybridShardedDifferential(t *testing.T) {
	rel, err := tpcd.Generate(tpcd.Params{TableSize: 12_000, NumGroups: 27, GroupSkew: 0.86, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	spec := congress.SynopsisSpec{
		Table:   rel.Name,
		GroupBy: tpcd.GroupingAttrs,
		Space:   1200,
		Seed:    7,
	}
	single := congress.Open()
	if _, err := single.AttachRelation(rel); err != nil {
		t.Fatal(err)
	}
	if err := single.BuildSynopsis(spec); err != nil {
		t.Fatal(err)
	}
	grouping := []string{"l_returnflag"}
	for _, k := range []int{2, 4} {
		var covered atomic.Int32
		covered.Store(int32(k))
		co, _ := coordinatorBehind(t, shardWarehouses(t, rel, k, spec), forceNoHybrid(&covered))
		for _, agg := range []congress.Aggregate{congress.Sum, congress.Count, congress.Avg} {
			want, err := single.Estimate(rel.Name, grouping, agg, "l_quantity", 0.95)
			if err != nil {
				t.Fatal(err)
			}
			got, err := co.Estimate(rel.Name, grouping, agg, "l_quantity", 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d %v: %d groups, want %d", k, agg, len(got), len(want))
			}
			byKey := make(map[string]congress.GroupEstimate, len(want))
			for _, e := range want {
				if e.Bound != 0 || e.SampleN != 0 {
					t.Fatalf("single %v %q not hybrid-exact: %+v", agg, e.Key, e)
				}
				byKey[e.Key] = e
			}
			for _, e := range got {
				w, ok := byKey[e.Key]
				if !ok {
					t.Fatalf("k=%d %v: group %q missing from single", k, agg, e.Key)
				}
				if relDiffT(e.Value, w.Value) > 1e-9 || e.Bound != 0 || e.SampleN != 0 {
					t.Errorf("k=%d %v %q: coordinator hybrid %+v != single %+v", k, agg, e.Key, e, w)
				}
			}
		}

		// Mixed coverage: j covered shards, K−j sampled.
		for _, agg := range []congress.Aggregate{congress.Sum, congress.Count, congress.Avg} {
			prev := map[string]float64{}
			for j := 0; j <= k; j++ {
				covered.Store(int32(j))
				residual := co.Metrics().HybridResidual
				ests, err := co.Estimate(rel.Name, grouping, agg, "l_quantity", 0.95)
				if err != nil {
					t.Fatal(err)
				}
				mixed := j > 0 && j < k
				if got := co.Metrics().HybridResidual - residual; (got == 1) != mixed {
					t.Errorf("k=%d %v j=%d: %d residual compositions counted", k, agg, j, got)
				}
				widest := 0.0
				for _, e := range ests {
					if j > 0 {
						base, ok := prev[e.Key]
						if !ok {
							t.Fatalf("k=%d %v j=%d: group %q appeared mid-sweep", k, agg, j, e.Key)
						}
						if e.Bound > base*(1+1e-12) {
							t.Errorf("k=%d %v j=%d %q: bound %v wider than at j-1 (%v)", k, agg, j, e.Key, e.Bound, base)
						}
					}
					if j == k && e.Bound != 0 {
						t.Errorf("k=%d %v full coverage %q: bound %v, want 0", k, agg, e.Key, e.Bound)
					}
					prev[e.Key] = e.Bound
					widest = max(widest, e.Bound)
				}
				// COUNT over whole strata is exact from the sample alone;
				// the other two must start wide or the sweep shows nothing.
				if j == 0 && agg != congress.Count && widest == 0 {
					t.Errorf("k=%d %v: pure-sample baseline already has zero width", k, agg)
				}
			}
		}
		// The same sweep one step earlier: the finalized coordinator
		// partials are the coordinator's estimate.
		covered.Store(1)
		parts, err := co.EstimatePartialsOpts(context.Background(), rel.Name, grouping, "l_quantity", congress.PartialsOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fromParts, err := estimate.Finalize(parts, congress.Sum, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := co.Estimate(rel.Name, grouping, congress.Sum, "l_quantity", 0.95)
		if err != nil {
			t.Fatal(err)
		}
		sameEstimates(t, fmt.Sprintf("k=%d mixed partials", k), fromParts, direct)
	}
}
