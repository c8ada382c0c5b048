package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/pkg/client"
)

// distCluster is a full distributed deployment inside one test: K shard
// congressd servers (each fronting one partition of a tpcd relation)
// plus a coordinator server wired over their HTTP endpoints, alongside
// a single-warehouse reference over the same data for differentials.
type distCluster struct {
	co        *congress.Coordinator
	c         *client.Client // talks to the coordinator server
	single    *congress.Warehouse
	shards    []*congress.Warehouse // the shard backing stores
	shardSrvs []*httptest.Server
}

// newDistCluster partitions rows of lineitem across K shard servers by
// the finest grouping key and builds a fully enumerated synopsis
// (space ≥ every shard's row count) so estimates are sampling-noise
// free on both sides of the differential.
func newDistCluster(t *testing.T, shards, rows int) *distCluster {
	t.Helper()
	return newDistClusterBehind(t, shards, rows, nil)
}

// newDistClusterBehind is newDistCluster with every shard server's
// handler passed through wrap (when non-nil) — the place a test stands
// in for an older shard or a link that damages replies.
func newDistClusterBehind(t *testing.T, shards, rows int, wrap func(shard int, h http.Handler) http.Handler) *distCluster {
	t.Helper()
	rel, err := tpcd.Generate(tpcd.Params{TableSize: rows, NumGroups: 27, GroupSkew: 0.86, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	spec := congress.SynopsisSpec{
		Table:   rel.Name,
		GroupBy: tpcd.GroupingAttrs,
		Space:   2 * rows, // ≥ every shard's row count → full enumeration
		Seed:    7,
	}
	single := congress.Open()
	single.AttachRelation(rel)
	if err := single.BuildSynopsis(spec); err != nil {
		t.Fatal(err)
	}
	cl := &distCluster{single: single, shards: shardWarehouses(t, rel, shards, spec)}
	cl.co, cl.shardSrvs = coordinatorBehind(t, cl.shards, wrap)
	_, cl.c = testServer(t, Options{Coordinator: cl.co})
	return cl
}

// coordinatorOver serves every shard warehouse from its own HTTP server
// and returns a healthy, discovered Coordinator over those endpoints.
func coordinatorOver(t *testing.T, shards []*congress.Warehouse) (*congress.Coordinator, []*httptest.Server) {
	t.Helper()
	return coordinatorBehind(t, shards, nil)
}

func coordinatorBehind(t *testing.T, shards []*congress.Warehouse, wrap func(shard int, h http.Handler) http.Handler) (*congress.Coordinator, []*httptest.Server) {
	t.Helper()
	var srvs []*httptest.Server
	urls := make([]string, len(shards))
	for i := range urls {
		h := New(Options{Warehouse: shards[i], Logger: quietLogger()}).Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		hs := httptest.NewServer(h)
		t.Cleanup(hs.Close)
		srvs = append(srvs, hs)
		urls[i] = hs.URL
	}
	co, err := congress.NewCoordinator(urls, congress.CoordinatorOptions{
		LegTimeout: 5 * time.Second,
		Retries:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := co.WaitHealthy(ctx, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := co.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	return co, srvs
}

func relDiffT(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return d / m
}

// TestDistShardDifferential is the distributed acceptance differential:
// a 4-shard deployment of real HTTP servers must reproduce the
// single-warehouse SUM/COUNT/AVG estimates — values, bounds and sample
// counts — to 1e-9 at every grouping granularity, because partials
// travel losslessly over the wire and the confidence interval is taken
// exactly once after the merge.
func TestDistShardDifferential(t *testing.T) {
	cl := newDistCluster(t, 4, 6000)
	ctx := context.Background()
	groupings := [][]string{
		{"l_returnflag"},
		{"l_returnflag", "l_linestatus"},
		tpcd.GroupingAttrs,
	}
	for _, grouping := range groupings {
		for _, agg := range []string{"sum", "count", "avg"} {
			want, err := cl.single.Estimate("lineitem", grouping, mustAgg(t, agg), "l_quantity", 0.95)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.c.Query(ctx, client.QueryRequest{Estimate: &client.EstimateRequest{
				Table: "lineitem", GroupBy: grouping,
				Agg: agg, Column: "l_quantity", Confidence: 0.95,
			}})
			if err != nil {
				t.Fatalf("%v %s: %v", grouping, agg, err)
			}
			if len(res.Groups) != len(want) {
				t.Fatalf("%v %s: %d groups, want %d", grouping, agg, len(res.Groups), len(want))
			}
			byKey := make(map[string]congress.GroupEstimate, len(want))
			for _, e := range want {
				byKey[e.Key] = e
			}
			for _, g := range res.Groups {
				key := strings.Join(g.Group, congress.EstimateKeySep)
				w, ok := byKey[key]
				if !ok {
					t.Fatalf("%v %s: distributed group %q missing from single", grouping, agg, key)
				}
				if relDiffT(g.Value, w.Value) > 1e-9 {
					t.Errorf("%v %s %q: value %v != %v", grouping, agg, key, g.Value, w.Value)
				}
				if relDiffT(g.Bound, w.Bound) > 1e-9 {
					t.Errorf("%v %s %q: bound %v != %v", grouping, agg, key, g.Bound, w.Bound)
				}
				if g.SampleN != w.SampleN {
					t.Errorf("%v %s %q: SampleN %d != %d", grouping, agg, key, g.SampleN, w.SampleN)
				}
			}
		}
	}
}

func mustAgg(t *testing.T, s string) congress.Aggregate {
	t.Helper()
	agg, err := parseAggregate(s)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// TestDistShardInsertRouting: an insert through the coordinator lands
// on exactly one shard (chosen by the finest grouping key), the batch
// path routes a whole request in one leg per shard, and the refresh
// fans out so the rows become visible to a subsequent estimate.
func TestDistShardInsertRouting(t *testing.T) {
	cl := newDistCluster(t, 4, 2000)
	ctx := context.Background()

	numRows := func() []int {
		out := make([]int, len(cl.shards))
		for i, w := range cl.shards {
			tbl, err := w.Table("lineitem")
			if err != nil {
				t.Fatal(err)
			}
			out[i] = tbl.NumRows()
		}
		return out
	}
	rows := []congress.Row{
		{congress.I(9_000_001), congress.I(0), congress.I(0), congress.D("1994-06-15"), congress.F(7), congress.F(1200)},
		{congress.I(9_000_002), congress.I(1), congress.I(1), congress.D("1994-07-15"), congress.F(9), congress.F(1800)},
		{congress.I(9_000_003), congress.I(0), congress.I(0), congress.D("1994-06-15"), congress.F(3), congress.F(400)},
	}
	wire := make([][]any, len(rows))
	for i, row := range rows {
		for _, v := range row {
			wire[i] = append(wire[i], v.JSONValue())
		}
	}
	before := numRows()
	ins, err := cl.c.Insert(ctx, client.InsertRequest{Table: "lineitem", Rows: wire, Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Inserted != 3 || !ins.Refreshed {
		t.Fatalf("insert response %+v", ins)
	}
	// Every row must land on the shard the coordinator's routing names.
	ct, err := cl.co.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(before)
	for _, row := range rows {
		want[ct.RouteOf(row)]++
	}
	if got := numRows(); !slices.Equal(got, want) {
		t.Errorf("shard row counts %v after the inserts, want %v (before %v)", got, want, before)
	}

	metrics, err := cl.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"congress_distshard_count 4",
		"congress_distshard_inserts_total",
		"congress_distshard_fanout_seconds",
		"server_requests_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDistShardKilledShard: killing one shard mid-deployment must fail
// coordinator queries with the typed shard_unavailable error — never a
// silently merged partial answer missing that shard's groups.
func TestDistShardKilledShard(t *testing.T) {
	cl := newDistCluster(t, 4, 2000)
	ctx := context.Background()

	cl.shardSrvs[2].Close() // SIGKILL stand-in: connections now refuse

	_, err := cl.c.Query(ctx, client.QueryRequest{Estimate: &client.EstimateRequest{
		Table: "lineitem", GroupBy: []string{"l_returnflag"},
		Agg: "sum", Column: "l_quantity", Confidence: 0.95,
	}})
	if err == nil {
		t.Fatal("query with a dead shard succeeded — partial answer was silently merged")
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != "shard_unavailable" || ae.Status != 503 {
		t.Fatalf("err = %v, want 503 shard_unavailable", err)
	}
	if !strings.Contains(ae.Message, "shard 2") {
		t.Errorf("error %q does not name the dead shard", ae.Message)
	}

	// Direct (non-HTTP) classification: errors.Is must see the sentinel.
	_, _, cerr := cl.co.EstimateQueryOpts(ctx, "lineitem", []string{"l_returnflag"}, congress.Sum, "l_quantity", 0.95, congress.ApproxOptions{})
	if !errors.Is(cerr, congress.ErrShardUnavailable) {
		t.Errorf("EstimateQueryOpts error %v, want ErrShardUnavailable", cerr)
	}

	// The retry counter must have moved: the dead leg was retried before
	// being declared unavailable.
	metrics, merr := cl.c.Metrics(ctx)
	if merr != nil {
		t.Fatal(merr)
	}
	if !strings.Contains(metrics, `congress_distshard_fanout_retries_total{shard="2"} `) {
		t.Error("/metrics missing the shard 2 retry series")
	}
	if strings.Contains(metrics, `congress_distshard_fanout_retries_total{shard="2"} 0`) {
		t.Error("dead shard leg was never retried")
	}
}

// TestDistShardCoordinatorModeSurface: the coordinator serves the same
// API surface as sharded mode — SQL paths answer 400, snapshots 409,
// healthz reports the coordinator role, synopses merge across shard
// processes — and /v1/estimate/partials works on the coordinator
// itself, so deployments can tier coordinators.
func TestDistShardCoordinatorModeSurface(t *testing.T) {
	cl := newDistCluster(t, 2, 1500)
	ctx := context.Background()

	if _, err := cl.c.Query(ctx, client.QueryRequest{SQL: "select count(*) from lineitem"}); err == nil {
		t.Error("SQL query accepted in coordinator mode")
	} else if ae, ok := err.(*client.APIError); !ok || ae.Code != "bad_query" {
		t.Errorf("approx SQL error = %v, want bad_query", err)
	}
	if _, err := cl.c.Exact(ctx, client.ExactRequest{SQL: "select count(*) from lineitem"}); err == nil {
		t.Error("/v1/exact accepted in coordinator mode")
	}
	if _, err := cl.c.Snapshot(ctx); err == nil {
		t.Error("/v1/snapshot accepted in coordinator mode")
	} else if ae, ok := err.(*client.APIError); !ok || ae.Code != "not_persistent" {
		t.Errorf("snapshot error = %v, want not_persistent", err)
	}

	infos, err := cl.c.Synopses(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Table != "lineitem" || infos[0].Shards < 1 {
		t.Fatalf("synopses: %+v", infos)
	}
	if len(infos[0].Columns) != 6 {
		t.Errorf("coordinator synopses ship %d columns, want 6", len(infos[0].Columns))
	}

	// Tiering: the coordinator's own partials must merge to the same
	// state a shard-level merge produces.
	parts, err := cl.c.Partials(ctx, client.PartialsRequest{
		Table: "lineitem", GroupBy: []string{"l_returnflag"}, Column: "l_quantity",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts.Partials) == 0 {
		t.Fatal("coordinator partials empty")
	}
	wantParts, err := cl.single.EstimatePartialsOpts(ctx, "lineitem", []string{"l_returnflag"}, "l_quantity", congress.PartialsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts.Partials) != len(wantParts) {
		t.Errorf("coordinator partials: %d groups, want %d", len(parts.Partials), len(wantParts))
	}

	var hz map[string]any
	hres, err := http.Get(cl.c.BaseURL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if err := json.NewDecoder(hres.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["role"] != "coordinator" {
		t.Errorf("healthz role %v, want coordinator", hz["role"])
	}
}

// TestDistShardDiscoverRejectsSchemaMismatch: shards disagreeing on a
// table's schema must fail discovery, not silently merge partials from
// different stratifications.
func TestDistShardDiscoverRejectsSchemaMismatch(t *testing.T) {
	mk := func(group []string) *httptest.Server {
		w := congress.Open()
		rel, err := tpcd.Generate(tpcd.Params{TableSize: 500, NumGroups: 9, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		w.AttachRelation(rel)
		if err := w.BuildSynopsis(congress.SynopsisSpec{
			Table: "lineitem", GroupBy: group, Space: 100, Seed: 3,
		}); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(New(Options{Warehouse: w, Logger: quietLogger()}).Handler())
		t.Cleanup(hs.Close)
		return hs
	}
	a := mk([]string{"l_returnflag"})
	b := mk([]string{"l_returnflag", "l_linestatus"})
	co, err := congress.NewCoordinator([]string{a.URL, b.URL}, congress.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := co.Discover(ctx); err == nil {
		t.Fatal("Discover accepted shards with mismatched groupings")
	} else if !strings.Contains(err.Error(), "disagree") {
		t.Errorf("Discover error %v, want schema disagreement", err)
	}
}
