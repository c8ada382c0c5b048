package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/pkg/client"
)

// backendFixture is one Backend under the conformance script, with the
// warehouses that actually hold its rows (itself, or the shard
// processes behind the coordinator).
type backendFixture struct {
	name    string
	opts    Options // the one typed backend field set
	b       Backend
	engines []*congress.Warehouse
}

func (f backendFixture) numRows(t *testing.T) int {
	t.Helper()
	n := 0
	for _, w := range f.engines {
		tbl, err := w.Table("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		n += tbl.NumRows()
	}
	return n
}

// backendFixtures builds every kind of backend over identical lineitem
// data with a fully enumerated synopsis (space ≥ rows, so no sampling
// noise separates the builds): a single warehouse, and coordinators
// over K=2 and K=4 shard servers.
func backendFixtures(t *testing.T, rows int) []backendFixture {
	t.Helper()
	spec := congress.SynopsisSpec{Table: "lineitem", GroupBy: tpcd.GroupingAttrs, Space: 2 * rows, Seed: 7}
	shards := func(k int) []*congress.Warehouse {
		rel, err := tpcd.Generate(tpcd.Params{TableSize: rows, NumGroups: 27, GroupSkew: 0.86, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return shardWarehouses(t, rel, k, spec)
	}

	one := shards(1)[0] // the whole table in one warehouse
	fixtures := []backendFixture{{name: "single", opts: Options{Warehouse: one}, b: one, engines: []*congress.Warehouse{one}}}
	for _, k := range []int{2, 4} {
		behind := shards(k)
		co, _ := coordinatorOver(t, behind)
		fixtures = append(fixtures, backendFixture{
			name: fmt.Sprintf("coordinator-%d", k), opts: Options{Coordinator: co}, b: co, engines: behind})
	}
	return fixtures
}

// lineitemRow builds one typed lineitem row in the three grouping
// attributes' domain.
func lineitemRow(id int64, flag, status int64, qty float64) congress.Row {
	return congress.Row{congress.I(id), congress.I(flag), congress.I(status),
		congress.D("1994-06-15"), congress.F(qty), congress.F(100 * qty)}
}

func sameEstimates(t *testing.T, label string, got, want []estimate.GroupEstimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	byKey := make(map[string]estimate.GroupEstimate, len(want))
	for _, e := range want {
		byKey[e.Key] = e
	}
	for _, g := range got {
		w, ok := byKey[g.Key]
		if !ok {
			t.Fatalf("%s: group %q missing from the single warehouse", label, g.Key)
		}
		if relDiffT(g.Value, w.Value) > 1e-9 || relDiffT(g.Bound, w.Bound) > 1e-9 || g.SampleN != w.SampleN {
			t.Errorf("%s %q: (value %v, bound %v, n %d) != single (%v, %v, %d)",
				label, g.Key, g.Value, g.Bound, g.SampleN, w.Value, w.Bound, w.SampleN)
		}
	}
}

// TestBackendConformance runs one script against every Backend through
// the interface the server uses and asserts single ≡ distributed at
// every shard count: values, bounds and sample counts to 1e-9, merged
// listings, and identical error classification.
func TestBackendConformance(t *testing.T) {
	const rows = 3000
	ctx := context.Background()
	fixtures := backendFixtures(t, rows)
	ref := fixtures[0]

	// Batch A is refreshed into the samples; batch B arrives afterwards,
	// so it is pending in the maintainers but re-syncs the datacubes:
	// hybrid answers see A+B exactly, pure-sample answers see A.
	var batchA, batchB []congress.Row
	for i := 0; i < 40; i++ {
		batchA = append(batchA, lineitemRow(int64(9_000_000+i), int64(i%3), int64(i%2), float64(1+i%7)))
	}
	for i := 0; i < 10; i++ {
		batchB = append(batchB, lineitemRow(int64(9_100_000+i), int64(i%3), int64((i+1)%2), float64(2+i%5)))
	}
	for _, f := range fixtures {
		if n, err := f.b.InsertRows(ctx, "lineitem", batchA); err != nil || n != len(batchA) {
			t.Fatalf("%s: batch A inserted %d, err %v", f.name, n, err)
		}
		if err := f.b.RefreshSynopsis("lineitem"); err != nil {
			t.Fatalf("%s: refresh: %v", f.name, err)
		}
		if n, err := f.b.InsertRows(ctx, "lineitem", batchB); err != nil || n != len(batchB) {
			t.Fatalf("%s: batch B inserted %d, err %v", f.name, n, err)
		}
		if got, want := f.numRows(t), rows+len(batchA)+len(batchB); got != want {
			t.Fatalf("%s: %d rows after inserts, want %d", f.name, got, want)
		}
	}

	groupings := [][]string{nil, {"l_returnflag"}, {"l_returnflag", "l_linestatus"}, {"l_linestatus", "l_returnflag"}, tpcd.GroupingAttrs}
	aggs := []estimate.Aggregate{estimate.Sum, estimate.Count, estimate.Avg}
	for _, g := range groupings {
		for _, noHybrid := range []bool{false, true} {
			opts := congress.ApproxOptions{NoCache: true, NoHybrid: noHybrid}
			for _, agg := range aggs {
				want, _, err := ref.b.EstimateQueryOpts(ctx, "lineitem", g, agg, "l_quantity", 0.95, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range want {
					if exact := e.Bound == 0 && e.SampleN == 0; exact == noHybrid {
						t.Fatalf("single %v %v no_hybrid=%t: group %q bound %v n %d", g, agg, noHybrid, e.Key, e.Bound, e.SampleN)
					}
				}
				for _, f := range fixtures[1:] {
					got, status, err := f.b.EstimateQueryOpts(ctx, "lineitem", g, agg, "l_quantity", 0.95, opts)
					if err != nil {
						t.Fatalf("%s %v %v: %v", f.name, g, agg, err)
					}
					if status != congress.CacheBypass {
						t.Errorf("%s: cache status %v, want bypass", f.name, status)
					}
					sameEstimates(t, fmt.Sprintf("%s %v %v no_hybrid=%t", f.name, g, agg, noHybrid), got, want)
				}
			}
			// The partials are the same estimate one step earlier: finalizing
			// them must reproduce EstimateQueryOpts on every backend.
			want, _, err := ref.b.EstimateQueryOpts(ctx, "lineitem", g, estimate.Avg, "l_quantity", 0.95, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fixtures {
				parts, err := f.b.EstimatePartialsOpts(ctx, "lineitem", g, "l_quantity", congress.PartialsOptions{NoHybrid: noHybrid})
				if err != nil {
					t.Fatalf("%s partials %v: %v", f.name, g, err)
				}
				got, err := estimate.Finalize(parts, estimate.Avg, 0.95)
				if err != nil {
					t.Fatal(err)
				}
				sameEstimates(t, fmt.Sprintf("%s partials %v no_hybrid=%t", f.name, g, noHybrid), got, want)
			}
		}
	}

	t.Run("listings", func(t *testing.T) {
		refSyn := ref.b.Synopses()
		if len(refSyn) != 1 || refSyn[0].Shards != 0 {
			t.Fatalf("single synopses: %+v", refSyn)
		}
		refAlloc, err := ref.b.AllocationTable("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		population := func(rows []congress.AllocationRow) []string {
			out := make([]string, len(rows))
			for i, r := range rows {
				out[i] = fmt.Sprintf("%s=%d", strings.Join(r.Group, ","), r.Population)
			}
			sort.Strings(out)
			return out
		}
		for _, f := range fixtures[1:] {
			syn := f.b.Synopses()
			if len(syn) != 1 {
				t.Fatalf("%s synopses: %+v", f.name, syn)
			}
			s, r := syn[0], refSyn[0]
			if s.Table != r.Table || s.SampleSize != r.SampleSize || s.Strata != r.Strata ||
				s.PendingInserts != r.PendingInserts || s.Space != r.Space {
				t.Errorf("%s merged synopsis %+v, single %+v", f.name, s, r)
			}
			if s.Shards < 1 || s.Shards > len(f.engines) {
				t.Errorf("%s: synopsis spans %d shards of %d", f.name, s.Shards, len(f.engines))
			}
			alloc, err := f.b.AllocationTable("lineitem")
			if err != nil {
				t.Fatalf("%s allocation: %v", f.name, err)
			}
			if got, want := population(alloc), population(refAlloc); strings.Join(got, ";") != strings.Join(want, ";") {
				t.Errorf("%s allocation groups/populations differ from single:\n%v\n%v", f.name, got, want)
			}
			for i := 1; i < len(alloc); i++ {
				if alloc[i].Target > alloc[i-1].Target {
					t.Errorf("%s allocation not sorted by descending target at row %d", f.name, i)
					break
				}
			}
		}
	})

	t.Run("metrics", func(t *testing.T) {
		for _, f := range fixtures {
			var engines int64
			for _, w := range f.engines {
				engines += w.Metrics().MaintainerInserts
			}
			if want := int64(len(batchA) + len(batchB)); engines != want {
				t.Errorf("%s: engines counted %d maintainer inserts, want %d", f.name, engines, want)
			}
			// A backend reports the engines that live in its process: all of
			// them, except behind a coordinator, whose engines are remote.
			want := engines
			if f.opts.Coordinator != nil {
				want = 0
			}
			m := f.b.Metrics()
			if m.MaintainerInserts != want {
				t.Errorf("%s: Metrics().MaintainerInserts = %d, want %d", f.name, m.MaintainerInserts, want)
			}
			if m.HybridResidual != 0 {
				t.Errorf("%s: %d residual compositions under uniform coverage", f.name, m.HybridResidual)
			}
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, f := range fixtures {
			before := f.numRows(t)
			cases := []struct {
				name string
				err  func() error
				want error
			}{
				{"columns of unknown table", func() error { _, err := f.b.TableColumns("ghost"); return err }, congress.ErrUnknownTable},
				{"insert into unknown table", func() error {
					_, err := f.b.InsertRows(ctx, "ghost", batchA[:1])
					return err
				}, congress.ErrUnknownTable},
				{"estimate without synopsis", func() error {
					_, _, err := f.b.EstimateQueryOpts(ctx, "ghost", nil, estimate.Sum, "x", 0.95, congress.ApproxOptions{})
					return err
				}, congress.ErrNoSynopsis},
				{"partials without synopsis", func() error {
					_, err := f.b.EstimatePartialsOpts(ctx, "ghost", nil, "x", congress.PartialsOptions{})
					return err
				}, congress.ErrNoSynopsis},
				{"refresh without synopsis", func() error { return f.b.RefreshSynopsis("ghost") }, congress.ErrNoSynopsis},
				{"allocation without synopsis", func() error { _, err := f.b.AllocationTable("ghost"); return err }, congress.ErrNoSynopsis},
				{"bad grouping column", func() error {
					_, _, err := f.b.EstimateQueryOpts(ctx, "lineitem", []string{"nope"}, estimate.Sum, "l_quantity", 0.95, congress.ApproxOptions{})
					return err
				}, congress.ErrBadQuery},
				{"grouping column outside the synopsis", func() error {
					_, _, err := f.b.EstimateQueryOpts(ctx, "lineitem", []string{"l_quantity"}, estimate.Sum, "l_quantity", 0.95, congress.ApproxOptions{})
					return err
				}, congress.ErrBadQuery},
				{"bad aggregate column", func() error {
					_, err := f.b.EstimatePartialsOpts(ctx, "lineitem", []string{"l_returnflag"}, "nope", congress.PartialsOptions{})
					return err
				}, congress.ErrBadQuery},
				{"short row", func() error {
					n, err := f.b.InsertRows(ctx, "lineitem", []congress.Row{batchA[0][:3]})
					if n != 0 {
						return fmt.Errorf("short row reported %d rows inserted", n)
					}
					return err
				}, congress.ErrBadQuery},
			}
			for _, tc := range cases {
				if err := tc.err(); !errors.Is(err, tc.want) {
					t.Errorf("%s: %s: error %v, want %v", f.name, tc.name, err, tc.want)
				}
			}
			if after := f.numRows(t); after != before {
				t.Errorf("%s: rejected calls changed the row count %d -> %d", f.name, before, after)
			}
		}
	})
}

// TestInsertValidatesWholeBatchFirst: /v1/insert decodes and type-checks
// every row before applying any, on every backend — a malformed row in
// the middle of a batch answers 400 and leaves the table untouched.
func TestInsertValidatesWholeBatchFirst(t *testing.T) {
	good := func(id int64) []any { return []any{id, 0, 0, "1994-06-15", 7.0, 1200.0} }
	bad := map[string][]any{
		"wrong type": {int64(9_000_002), "zero", 0, "1994-06-15", 7.0, 1200.0},
		"short row":  {int64(9_000_002), 0, 0},
	}
	for _, f := range backendFixtures(t, 1000) {
		_, c := testServer(t, f.opts)
		before := f.numRows(t)
		for name, row := range bad {
			_, err := c.Insert(context.Background(), client.InsertRequest{
				Table: "lineitem", Rows: [][]any{good(9_000_001), row, good(9_000_003)}})
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.Status != 400 || ae.Code != "bad_request" {
				t.Errorf("%s: %s: err %v, want 400 bad_request", f.name, name, err)
			}
			if after := f.numRows(t); after != before {
				t.Errorf("%s: %s in the middle of a batch left %d rows applied", f.name, name, after-before)
			}
		}
		ins, err := c.Insert(context.Background(), client.InsertRequest{
			Table: "lineitem", Rows: [][]any{good(9_000_001), good(9_000_003)}})
		if err != nil || ins.Inserted != 2 {
			t.Errorf("%s: clean batch: %+v, %v", f.name, ins, err)
		}
		if after := f.numRows(t); after != before+2 {
			t.Errorf("%s: clean batch applied %d rows, want 2", f.name, after-before)
		}
	}
}

// TestCoordinatorMetricsExposeEngineCounters: the coordinator's own
// engine counters reach /metrics. One shard's datacube is made stale so
// the merge composes exact mass with sampled mass, which the
// coordinator — and nobody else — counts as a hybrid residual.
func TestCoordinatorMetricsExposeEngineCounters(t *testing.T) {
	cl := newDistCluster(t, 3, 1500)
	ctx := context.Background()
	if err := cl.shards[0].RefreshSynopsis("lineitem"); err != nil { // stale cube: shard 0 samples
		t.Fatal(err)
	}
	if _, err := cl.c.Query(ctx, client.QueryRequest{Estimate: &client.EstimateRequest{
		Table: "lineitem", GroupBy: []string{"l_returnflag"}, Agg: "sum", Column: "l_quantity", Confidence: 0.95,
	}}); err != nil {
		t.Fatal(err)
	}
	metrics, err := cl.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "congress_hybrid_residual_total 1\n") {
		t.Errorf("coordinator /metrics does not show the residual composition it counted:\n%s",
			grepLines(metrics, "congress_hybrid"))
	}
	if !strings.Contains(metrics, "congress_distshard_count 3") {
		t.Error("coordinator /metrics lost its congress_distshard_* block")
	}
}
