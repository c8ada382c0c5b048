package estimate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/interval"
	"github.com/approxdb/congress/internal/sample"
)

// planG is the synopsis grouping of planSample: three string columns.
var planG = []int{0, 1, 2}

// planValueCol is the measure ordinal of planSample.
const planValueCol = 3

// planSample builds groups finest strata over [a, b, c string, v float]
// with 1–rowsMax rows each, deterministically from seed. Stratum keys
// are a shuffled numbering, so the sorted stratum order is not the
// rendered-key order (as GroupKey order is not Value.String order).
// Some strata are empty and some carry only NULL measures.
func planSample(seed int64, groups, rowsMax int) *sample.Stratified[engine.Row] {
	rng := rand.New(rand.NewSource(seed))
	st := sample.NewStratified[engine.Row]()
	perm := rng.Perm(groups)
	for i := 0; i < groups; i++ {
		a, b, c := fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i%11), fmt.Sprintf("c%d", i)
		n := 1 + rng.Intn(rowsMax)
		if i%13 == 5 {
			n = 0
		}
		items := make([]engine.Row, n)
		allNull := i%17 == 3
		for j := range items {
			v := engine.NewFloat(rng.NormFloat64()*100 + 500)
			if allNull || rng.Intn(6) == 0 {
				v = engine.Null
			}
			items[j] = engine.Row{engine.NewString(a), engine.NewString(b), engine.NewString(c), v}
		}
		pop := int64(n) * int64(1+rng.Intn(30))
		if n == 0 {
			pop = 25
		}
		st.Put(&sample.Stratum[engine.Row]{Key: fmt.Sprintf("s%06d", perm[i]), Population: pop, Items: items})
	}
	return st
}

// partialsSink keeps benchmark results alive.
var partialsSink []GroupPartial

// BenchmarkPartialsCtx times the finest-grouping scan over 1000 strata
// of ~17 rows, the shape of one dist_estimate shard's finest query.
func BenchmarkPartialsCtx(b *testing.B) {
	v := strataOf(planSample(1, 1000, 33), planG)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if partialsSink, err = PartialsCtx(ctx, v, planG, planValueCol); err != nil {
			b.Fatal(err)
		}
	}
}

// shardPartials returns the finest partials of a 1000-stratum sample
// split over two shards by the production router: two unsorted lists
// of ~500 groups each, as a coordinator receives them.
func shardPartials(tb testing.TB) [][]GroupPartial {
	parts := partitionByRouter(tb, planSample(2, 1000, 33), 2)
	lists := make([][]GroupPartial, len(parts))
	for i, p := range parts {
		var err error
		if lists[i], err = PartialsCtx(context.Background(), strataOf(p, planG), planG, planValueCol); err != nil {
			tb.Fatal(err)
		}
	}
	return lists
}

// BenchmarkMergePartials times the coordinator's merge of two shards'
// finest partials (2 × ~500 groups).
func BenchmarkMergePartials(b *testing.B) {
	lists := shardPartials(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partialsSink = MergePartials(lists...)
	}
}

// naivePartials is the re-keying reference PartialsCtx is checked
// against: every non-empty stratum joins its requested values, looks
// the key up in a map and accumulates into the group's partial, in
// first-appearance order.
func naivePartials(v *Strata, groupCols []int, valueCol int) []GroupPartial {
	pos := make([]int, len(groupCols))
	for i, c := range groupCols {
		for j, g := range v.gCols {
			if g == c {
				pos[i] = j
			}
		}
	}
	out := []GroupPartial{}
	index := map[string]int{}
	parts := make([]string, len(pos))
	for _, s := range v.ranges {
		if s.Lo == s.Hi {
			continue
		}
		for i, p := range pos {
			parts[i] = s.Parts[p]
		}
		key := strings.Join(parts, datacube.KeySep)
		j, ok := index[key]
		if !ok {
			j = len(out)
			index[key] = j
			out = append(out, emptyPartial(key))
		}
		sf := max(s.SF, 1)
		acc := interval.NewStratum(sf)
		for r := s.Lo; r < s.Hi; r++ {
			if f, ok := v.Row(r)[valueCol].AsFloat(); ok {
				acc.Add(f)
			}
		}
		c := &out[j]
		if acc.N() == 0 {
			c.ZeroN += s.Hi - s.Lo
			if sf > 1 {
				c.ZeroScaled += float64(s.Population)
			}
			continue
		}
		c.AddStratum(&acc)
	}
	return out
}

// groupingRequests returns every request over the columns g of up
// to maxLen columns: each subset of G, the empty one included, in every
// permutation, and with repeated columns.
func groupingRequests(g []int, maxLen int) [][]int {
	reqs := [][]int{nil}
	for prev := [][]int{nil}; maxLen > 0; maxLen-- {
		var next [][]int
		for _, r := range prev {
			for _, c := range g {
				next = append(next, append(append([]int(nil), r...), c))
			}
		}
		reqs = append(reqs, next...)
		prev = next
	}
	return reqs
}

// TestPartialsCtxMatchesNaive: the planned scan returns the naive
// re-keying scan's partials bit for bit and in the same order, for
// every grouping request, on first use of a plan and from the cache.
func TestPartialsCtxMatchesNaive(t *testing.T) {
	views := map[string]struct {
		v        *Strata
		g        []int
		valueCol []int
	}{
		"plan":   {strataOf(planSample(5, 300, 12), planG), planG, []int{planValueCol}},
		"golden": {strataOf(goldenSample(), goldenG), goldenG, []int{2, 3, 4, 5}},
	}
	for name, tc := range views {
		for _, req := range groupingRequests(tc.g, len(tc.g)+1) {
			for _, vc := range tc.valueCol {
				want := naivePartials(tc.v, req, vc)
				for pass := 0; pass < 2; pass++ {
					got, err := PartialsCtx(context.Background(), tc.v, req, vc)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s %v col %d pass %d: %d groups, want %d", name, req, vc, pass, len(got), len(want))
					}
					slicesBitEqual(t, got, want)
				}
			}
		}
	}
}

// TestPartialsPlanConcurrentFirstUse: goroutines racing to build a
// fresh view's plans (run under -race) all get the naive answer.
func TestPartialsPlanConcurrentFirstUse(t *testing.T) {
	st := planSample(6, 200, 8)
	reqs := groupingRequests(planG, 2)
	for round := 0; round < 3; round++ {
		v := strataOf(st, planG)
		const workers = 4
		got := make([][][]GroupPartial, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range reqs {
					// Workers walk the requests from different ends.
					r := reqs[(i+w*len(reqs)/workers)%len(reqs)]
					p, err := PartialsCtx(context.Background(), v, r, planValueCol)
					if err != nil {
						t.Error(err)
						return
					}
					got[w] = append(got[w], p)
				}
			}(w)
		}
		wg.Wait()
		for w := range got {
			for i, p := range got[w] {
				slicesBitEqual(t, p, naivePartials(v, reqs[(i+w*len(reqs)/workers)%len(reqs)], planValueCol))
			}
		}
	}
}

// TestPartialsCtxAllocsFlat: once a view's plan exists, a finest scan
// allocates the same few times over 100 strata as over 3000.
func TestPartialsCtxAllocsFlat(t *testing.T) {
	allocs := func(groups int) float64 {
		v := strataOf(planSample(7, groups, 10), planG)
		return testing.AllocsPerRun(20, func() {
			if _, err := PartialsCtx(context.Background(), v, planG, planValueCol); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(3000)
	if small != large || large > 2 {
		t.Fatalf("finest PartialsCtx allocations: %v over 100 strata, %v over 3000", small, large)
	}
}

// mergeByMap is the map-and-sort merge MergePartials replaced, kept as
// its oracle: the first partial of a key is copied, later ones (lists
// in order, each front to back) merge into it, and keys come out
// sorted.
func mergeByMap(parts ...[]GroupPartial) []GroupPartial {
	merged := make(map[string]*GroupPartial)
	for _, list := range parts {
		for i := range list {
			p := &list[i]
			if m := merged[p.Key]; m != nil {
				m.Merge(&p.Moments)
				continue
			}
			cp := *p
			merged[p.Key] = &cp
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]GroupPartial, 0, len(keys))
	for _, k := range keys {
		out = append(out, *merged[k])
	}
	return out
}

// TestMergePartialsMatchesMapOracle: on random inputs — sorted and
// unsorted, overlapping, with keys repeated inside one list, empty
// lists and no lists — the k-way merge equals the map oracle bit for
// bit and leaves its inputs as they were.
func TestMergePartialsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	flt := func(int) float64 {
		if rng.Intn(5) == 0 {
			return math.Copysign(0, -1)
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	for trial := 0; trial < 400; trial++ {
		pool := 1 + rng.Intn(40)
		lists := make([][]GroupPartial, rng.Intn(6))
		for i := range lists {
			lists[i] = make([]GroupPartial, rng.Intn(30))
			for j := range lists[i] {
				key := fmt.Sprintf("k%d", rng.Intn(pool))
				lists[i][j] = fillPartial(t, func(int) string { return key }, func(int) int { return rng.Intn(100) }, flt)
			}
			if rng.Intn(2) == 0 {
				slices.SortStableFunc(lists[i], func(a, b GroupPartial) int { return strings.Compare(a.Key, b.Key) })
			}
		}
		before := make([][]GroupPartial, len(lists))
		for i, l := range lists {
			before[i] = slices.Clone(l)
		}
		got := MergePartials(lists...)
		slicesBitEqual(t, got, mergeByMap(before...))
		for i := range lists {
			slicesBitEqual(t, lists[i], before[i])
		}
	}
	if got := MergePartials(); got == nil || len(got) != 0 {
		t.Fatalf("merge of nothing = %#v, want an empty slice", got)
	}
}
