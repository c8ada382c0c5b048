package estimate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
	"github.com/approxdb/congress/internal/shard"
)

// synthSample builds a many-strata stratified sample with varied scale
// factors, multi-stratum groups and a value column, deterministically
// from seed. Row layout: [group string, value float]. A value that
// fails keep (a predicate; nil keeps all) is drawn but stored as NULL,
// which is how a row failing a predicate reaches the scan.
func synthSample(seed int64, strata int, keep func(float64) bool) *sample.Stratified[engine.Row] {
	rng := rand.New(rand.NewSource(seed))
	st := sample.NewStratified[engine.Row]()
	for i := 0; i < strata; i++ {
		group := fmt.Sprintf("grp-%d", i%7) // several strata per group
		n := 1 + rng.Intn(40)
		pop := int64(n) * int64(1+rng.Intn(50)) // sf in [1, 50]
		items := make([]engine.Row, n)
		base := rng.Float64() * 1000
		for j := range items {
			v := engine.NewFloat(base + rng.NormFloat64()*25)
			if keep != nil && !keep(v.F) {
				v = engine.Null
			}
			items[j] = engine.Row{engine.NewString(group), v}
		}
		st.Put(&sample.Stratum[engine.Row]{
			Key: fmt.Sprintf("s-%04d", i), Population: pop, Items: items,
		})
	}
	return st
}

// partitionByRouter splits a stratified sample into k parts, whole
// strata routed by the production hash router — the same partition a
// sharded warehouse induces.
func partitionByRouter(t testing.TB, st *sample.Stratified[engine.Row], k int) []*sample.Stratified[engine.Row] {
	t.Helper()
	r, err := shard.NewRouter(k)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*sample.Stratified[engine.Row], k)
	for i := range parts {
		parts[i] = sample.NewStratified[engine.Row]()
	}
	for _, key := range st.Keys() {
		s, _ := st.Get(key)
		parts[r.Route(key)].Put(s)
	}
	return parts
}

// relDiff returns |a-b| / max(|a|,|b|,1).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return d / m
}

// TestMergeReproducesSingleScan is the scatter-gather correctness
// property: partitioning the strata across K shards, scanning each part
// independently, merging partials and finalizing once must reproduce
// the single-scan estimate — same groups, same values, same bounds —
// for every aggregate, at K in {2, 4, 8}.
func TestMergeReproducesSingleScan(t *testing.T) {
	// Predicate with value dependence, so some strata contribute
	// zero-contribution or sparse records.
	st := synthSample(17, 120, func(v float64) bool { return v > 150 })
	for _, agg := range []Aggregate{Sum, Count, Avg} {
		single, err := run(st, byGroup, valueCol, agg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(single) == 0 {
			t.Fatal("degenerate fixture: no groups")
		}
		for _, k := range []int{2, 4, 8} {
			parts := partitionByRouter(t, st, k)
			lists := make([][]GroupPartial, k)
			for i, p := range parts {
				lists[i], err = PartialsCtx(context.Background(), strataOf(p, byGroup), byGroup, valueCol)
				if err != nil {
					t.Fatal(err)
				}
			}
			merged, err := Finalize(MergePartials(lists...), agg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(merged) != len(single) {
				t.Fatalf("%v k=%d: %d merged groups, want %d", agg, k, len(merged), len(single))
			}
			byKey := make(map[string]GroupEstimate, len(single))
			for _, e := range single {
				byKey[e.Key] = e
			}
			for _, m := range merged {
				s, ok := byKey[m.Key]
				if !ok {
					t.Fatalf("%v k=%d: merged group %q absent from single scan", agg, k, m.Key)
				}
				if m.SampleN != s.SampleN {
					t.Errorf("%v k=%d %q: SampleN %d != %d", agg, k, m.Key, m.SampleN, s.SampleN)
				}
				if relDiff(m.Value, s.Value) > 1e-9 {
					t.Errorf("%v k=%d %q: value %v != %v", agg, k, m.Key, m.Value, s.Value)
				}
				if relDiff(m.Bound, s.Bound) > 1e-9 {
					t.Errorf("%v k=%d %q: bound %v != %v (variance addition violated)", agg, k, m.Key, m.Bound, s.Bound)
				}
			}
		}
	}
}

// TestMergeAbsentGroupSemantics: a group whose strata on shard B all
// fail the predicate must merge exactly as the single scan that saw
// those strata — the zero-contribution record travels with the
// partials and widens the SUM/COUNT bounds.
func TestMergeAbsentGroupSemantics(t *testing.T) {
	// The predicate is v > 0; a failing row carries a NULL measure.
	mk := func(key, group string, pop int64, vals ...float64) *sample.Stratum[engine.Row] {
		items := make([]engine.Row, len(vals))
		for i, v := range vals {
			m := engine.NewFloat(v)
			if v <= 0 {
				m = engine.Null
			}
			items[i] = engine.Row{engine.NewString(group), m}
		}
		return &sample.Stratum[engine.Row]{Key: key, Population: pop, Items: items}
	}
	// Shard A: group g passes; shard B: same group, all rows fail.
	partA := sample.NewStratified[engine.Row]()
	partA.Put(mk("s-a", "g", 1000, 50, 60, 70, 80))
	partB := sample.NewStratified[engine.Row]()
	partB.Put(mk("s-b", "g", 2000, -5, -7, -9))

	full := sample.NewStratified[engine.Row]()
	full.Put(mk("s-a", "g", 1000, 50, 60, 70, 80))
	full.Put(mk("s-b", "g", 2000, -5, -7, -9))

	pa, err := PartialsCtx(context.Background(), strataOf(partA, byGroup), byGroup, valueCol)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := PartialsCtx(context.Background(), strataOf(partB, byGroup), byGroup, valueCol)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb) != 1 || pb[0].N != 0 || pb[0].ZeroN != 3 || pb[0].ZeroScaled != 2000 {
		t.Fatalf("shard B must export an explicit zero-contribution record, got %+v", pb)
	}
	merged, err := Finalize(MergePartials(pa, pb), Sum, 0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := run(full, byGroup, valueCol, Sum, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 1 || len(single) != 1 {
		t.Fatalf("groups: merged %d single %d", len(merged), len(single))
	}
	if relDiff(merged[0].Bound, single[0].Bound) > 1e-12 || merged[0].Value != single[0].Value {
		t.Fatalf("merged %+v != single %+v", merged[0], single[0])
	}
	// Dropping the zero record must narrow the bound: the record carries
	// real information about unsampled population.
	withoutZero, err := Finalize(pa, Sum, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(merged[0].Bound > withoutZero[0].Bound) {
		t.Errorf("zero-contribution record did not widen the bound: %v vs %v",
			merged[0].Bound, withoutZero[0].Bound)
	}
}

// TestMergePartialsConcurrent exercises the scatter half under -race:
// per-shard scans run concurrently (as shard.Fanout runs them) and the
// merged result must still match the single scan.
func TestMergePartialsConcurrent(t *testing.T) {
	st := synthSample(99, 64, nil)
	parts := partitionByRouter(t, st, 8)
	lists := make([][]GroupPartial, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p *sample.Stratified[engine.Row]) {
			defer wg.Done()
			out, err := PartialsCtx(context.Background(), strataOf(p, byGroup), byGroup, valueCol)
			if err != nil {
				t.Error(err)
				return
			}
			lists[i] = out
		}(i, p)
	}
	wg.Wait()
	merged, err := Finalize(MergePartials(lists...), Avg, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	single, err := run(st, byGroup, valueCol, Avg, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(single) {
		t.Fatalf("%d merged groups, want %d", len(merged), len(single))
	}
	byKey := make(map[string]GroupEstimate)
	for _, e := range single {
		byKey[e.Key] = e
	}
	for _, m := range merged {
		s := byKey[m.Key]
		if relDiff(m.Value, s.Value) > 1e-9 || relDiff(m.Bound, s.Bound) > 1e-9 {
			t.Errorf("%q: merged (%v ± %v) != single (%v ± %v)", m.Key, m.Value, m.Bound, s.Value, s.Bound)
		}
	}
}
