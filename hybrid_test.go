package congress

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/engine"
)

// hybridTruth computes the exact SUM/COUNT/AVG of amount under grouping
// via the SQL engine, keyed like an estimate (rendered values joined by
// EstimateKeySep; "" for the empty grouping). A group whose amount is
// entirely NULL has no estimate, so it has no truth either.
func hybridTruth(t *testing.T, w *Warehouse, grouping []string) map[string][3]float64 {
	t.Helper()
	q := "select sum(amount), count(amount), avg(amount) from sales"
	if len(grouping) > 0 {
		cols := strings.Join(grouping, ", ")
		q = "select " + cols + ", sum(amount), count(amount), avg(amount) from sales group by " + cols
	}
	res, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[string][3]float64, len(res.Rows))
	for _, r := range res.Rows {
		parts := make([]string, len(grouping))
		for i := range parts {
			parts[i] = r[i].String()
		}
		n := len(grouping)
		s, ok := r[n].AsFloat()
		if !ok {
			continue
		}
		c, _ := r[n+1].AsFloat()
		a, _ := r[n+2].AsFloat()
		truth[joinParts(parts)] = [3]float64{s, c, a}
	}
	return truth
}

// estimateKeys returns the sorted group keys of ests.
func estimateKeys(ests []GroupEstimate) []string {
	keys := make([]string, len(ests))
	for i, e := range ests {
		keys[i] = e.Key
	}
	sort.Strings(keys)
	return keys
}

// TestHybridEstimateAnswersExactByDefault: with a fresh exact datacube
// covering the request, the default estimate path must return the exact
// SQL answer with a zero half-width and no sampled rows, while NoHybrid
// forces the pure-sample estimator — and the two modes must cache under
// distinct keys. Over the empty grouping and both orders of a
// two-column one, the cube's keys and the sample scan's keys must be the
// same set, and a group whose amount is entirely NULL is absent from
// both. A group whose region is the empty string keys it as an empty
// part in both.
func TestHybridEstimateAnswersExactByDefault(t *testing.T) {
	w, tbl := buildSalesWarehouse(t)
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(Str("void"), Str("ink"), engine.Null); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(Str(""), Str("ink"), F(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	aggs := []struct {
		agg Aggregate
		ti  int
	}{{Sum, 0}, {Count, 1}, {Avg, 2}}
	groupings := [][]string{nil, {"region"}, {"product", "region"}, {"region", "product"}}
	for _, g := range groupings {
		truth := hybridTruth(t, w, g)
		for _, a := range aggs {
			ests, status, err := w.EstimateQueryOpts(ctx, "sales", g, a.agg, "amount", 0.95, ApproxOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if status != CacheMiss {
				t.Errorf("%v %v: first hybrid estimate cache status %v, want miss", g, a.agg, status)
			}
			if len(ests) != len(truth) {
				t.Fatalf("%v %v: %d groups, want %d", g, a.agg, len(ests), len(truth))
			}
			for _, e := range ests {
				want, ok := truth[e.Key]
				if !ok {
					t.Fatalf("%v %v: group %q has no truth", g, a.agg, e.Key)
				}
				if e.Bound != 0 || e.SampleN != 0 {
					t.Errorf("%v %v %q: bound %v sampleN %d, want exact (0, 0)", g, a.agg, e.Key, e.Bound, e.SampleN)
				}
				if relDiff(e.Value, want[a.ti]) > 1e-9 {
					t.Errorf("%v %v %q: hybrid value %v != exact %v", g, a.agg, e.Key, e.Value, want[a.ti])
				}
			}
			// Same request again: served from cache under the hybrid key.
			if _, status, err = w.EstimateQueryOpts(ctx, "sales", g, a.agg, "amount", 0.95, ApproxOptions{}); err != nil || status != CacheHit {
				t.Errorf("%v %v: repeat hybrid estimate (%v, %v), want cache hit", g, a.agg, status, err)
			}
			// NoHybrid must not alias the hybrid cache entry and must come
			// from the sample.
			sampled, status, err := w.EstimateQueryOpts(ctx, "sales", g, a.agg, "amount", 0.95, ApproxOptions{NoHybrid: true})
			if err != nil {
				t.Fatal(err)
			}
			if status != CacheMiss {
				t.Errorf("%v %v: first NoHybrid estimate cache status %v, want miss (distinct key)", g, a.agg, status)
			}
			for _, e := range sampled {
				if e.SampleN == 0 {
					t.Errorf("%v %v %q: NoHybrid estimate has no sampled rows", g, a.agg, e.Key)
				}
			}
			if hk, sk := estimateKeys(ests), estimateKeys(sampled); !slices.Equal(hk, sk) {
				t.Errorf("%v %v: hybrid keys %q != sampled keys %q", g, a.agg, hk, sk)
			}
		}
	}
	m := w.Metrics()
	if want := int64(len(aggs) * len(groupings)); m.HybridExact != want {
		t.Errorf("HybridExact = %d, want %d (one per uncached hybrid estimate)", m.HybridExact, want)
	}
	if m.HybridFallback != 0 {
		t.Errorf("HybridFallback = %d, want 0", m.HybridFallback)
	}
}

// TestHybridStaleEpochGuard: any epoch advance the insert feed did not
// produce (here: a synopsis refresh) must disable hybrid answering —
// the estimate falls back to the pure-sample path and counts a fallback
// — until the next insert proves the cube's feed is live again, at
// which point hybrid answers return and include the inserted rows.
func TestHybridStaleEpochGuard(t *testing.T) {
	w, tbl := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	est := func(opts ApproxOptions) []GroupEstimate {
		t.Helper()
		// NoCache: the guard must be observed live, not through a cached
		// pre-refresh answer.
		opts.NoCache = true
		ests, _, err := w.EstimateQueryOpts(ctx, "sales", []string{"region"}, Sum, "amount", 0.95, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ests
	}
	for _, e := range est(ApproxOptions{}) {
		if e.SampleN != 0 || e.Bound != 0 {
			t.Fatalf("pre-refresh %q not exact: %+v", e.Key, e)
		}
	}

	if err := w.RefreshSynopsis("sales"); err != nil {
		t.Fatal(err)
	}
	stale := est(ApproxOptions{})
	pure := est(ApproxOptions{NoHybrid: true})
	if len(stale) != len(pure) {
		t.Fatalf("stale groups %d != pure-sample %d", len(stale), len(pure))
	}
	pureByKey := make(map[string]GroupEstimate, len(pure))
	for _, e := range pure {
		pureByKey[e.Key] = e
	}
	for _, e := range stale {
		p := pureByKey[e.Key]
		if e.SampleN == 0 {
			t.Errorf("post-refresh %q answered without samples — stale cube served", e.Key)
		}
		if e.Value != p.Value || e.Bound != p.Bound || e.SampleN != p.SampleN {
			t.Errorf("post-refresh %q: hybrid-disabled answer %+v != pure-sample %+v", e.Key, e, p)
		}
	}
	if m := w.Metrics(); m.HybridFallback == 0 {
		t.Error("no HybridFallback counted for stale-cube estimates")
	}

	// An insert re-feeds the cube and re-syncs the epoch: hybrid answers
	// come back and must include the new row.
	truthBefore := hybridTruth(t, w, []string{"region"})["east"][0]
	if err := tbl.Insert(Str("east"), Str("pen"), F(1000)); err != nil {
		t.Fatal(err)
	}
	reenabled := est(ApproxOptions{})
	for _, e := range reenabled {
		if e.SampleN != 0 || e.Bound != 0 {
			t.Fatalf("post-insert %q not exact: %+v", e.Key, e)
		}
		if e.Key == "east" && relDiff(e.Value, truthBefore+1000) > 1e-9 {
			t.Errorf("post-insert east = %v, want %v (inserted row missing from cube)", e.Value, truthBefore+1000)
		}
	}
}

// TestHybridPersistenceRoundTrip: a snapshot taken while the cube is
// fresh must restore with hybrid answering intact; a snapshot taken
// while the cube is stale (post-refresh, pre-insert) must restore with
// hybrid disabled — the same contract a legacy snapshot without an
// ExactCube gets — staying disabled until a synopsis rebuild seeds a
// fresh cube.
func TestHybridPersistenceRoundTrip(t *testing.T) {
	ctx := context.Background()
	estimateOnce := func(w *Warehouse) []GroupEstimate {
		t.Helper()
		ests, _, err := w.EstimateQueryOpts(ctx, "sales", []string{"region"}, Sum, "amount", 0.95,
			ApproxOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return ests
	}

	t.Run("fresh cube survives recovery", func(t *testing.T) {
		dir := t.TempDir()
		w, _ := buildSalesWarehouse(t)
		if err := w.BuildSynopsis(SynopsisSpec{
			Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 3,
		}); err != nil {
			t.Fatal(err)
		}
		want := hybridTruth(t, w, []string{"region"})
		if err := w.EnablePersistence(dir, PersistOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDir(dir, PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		ests := estimateOnce(re)
		if len(ests) != len(want) {
			t.Fatalf("%d groups after recovery, want %d", len(ests), len(want))
		}
		for _, e := range ests {
			if e.Bound != 0 || e.SampleN != 0 {
				t.Errorf("recovered %q not hybrid-exact: %+v", e.Key, e)
			}
			if relDiff(e.Value, want[e.Key][0]) > 1e-9 {
				t.Errorf("recovered %q = %v, want %v", e.Key, e.Value, want[e.Key][0])
			}
		}
	})

	t.Run("stale cube restores disabled until insert", func(t *testing.T) {
		dir := t.TempDir()
		w, _ := buildSalesWarehouse(t)
		if err := w.BuildSynopsis(SynopsisSpec{
			Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 3,
		}); err != nil {
			t.Fatal(err)
		}
		// Refresh leaves the cube stale; ExportState must then omit it.
		if err := w.RefreshSynopsis("sales"); err != nil {
			t.Fatal(err)
		}
		if err := w.EnablePersistence(dir, PersistOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		re, _, err := OpenDir(dir, PersistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		for _, e := range estimateOnce(re) {
			if e.SampleN == 0 {
				t.Errorf("recovered-from-stale %q answered exactly — cube should not have been exported", e.Key)
			}
		}
		// No cube object was restored, so there is nothing an insert could
		// re-sync: hybrid stays off until the synopsis is rebuilt (the
		// build seeds a fresh cube from the base relation).
		tbl, err := re.Table("sales")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Insert(Str("west"), Str("pen"), F(3)); err != nil {
			t.Fatal(err)
		}
		for _, e := range estimateOnce(re) {
			if e.SampleN == 0 {
				t.Errorf("insert alone re-enabled hybrid with no restored cube: %q %+v", e.Key, e)
			}
		}
		if err := re.BuildSynopsis(SynopsisSpec{
			Table: "sales", GroupBy: []string{"region", "product"}, Space: 500, Seed: 3,
		}); err != nil {
			t.Fatal(err)
		}
		for _, e := range estimateOnce(re) {
			if e.SampleN != 0 || e.Bound != 0 {
				t.Errorf("rebuild did not re-enable hybrid: %q %+v", e.Key, e)
			}
		}
	})
}

// relDiff returns |a-b| / max(|a|,|b|,1).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return d / m
}
