package datacube

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func measured(v float64) MeasureValue { return MeasureValue{V: v, OK: true} }

// measureOf reads one group's exact sum and non-null count of col under
// mask through MeasureGroupsUnder; ok is false for an untracked column.
func measureOf(c *Cube, mask uint32, key, col string) (sum float64, nonNull int64, ok bool) {
	ok = c.MeasureGroupsUnder(mask, col, func(k string, _ int64, s float64, nn int64) {
		if k == key {
			sum, nonNull = s, nn
		}
	})
	return sum, nonNull, ok
}

func TestNewWithMeasuresValidation(t *testing.T) {
	if _, err := NewWithMeasures([]string{"a"}, []string{""}); err == nil {
		t.Error("empty measure name accepted")
	}
	if _, err := NewWithMeasures([]string{"a"}, []string{"q", "q"}); err == nil {
		t.Error("duplicate measure accepted")
	}
	c, err := NewWithMeasures([]string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Measures() != nil {
		t.Errorf("measure-less cube reports measures: %v", c.Measures())
	}
	// Degrades to Add: measure accessors refuse unknown columns.
	if err := c.AddMeasured(id("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := measureOf(c, 0, "", "q"); ok {
		t.Error("MeasureGroupsUnder answered for untracked column")
	}
}

func TestAddMeasuredPrefixesAllMasks(t *testing.T) {
	c, err := NewWithMeasures([]string{"A", "B"}, []string{"q", "p"})
	if err != nil {
		t.Fatal(err)
	}
	// Two groups; q is null on one row of (a1,b1), p is always set.
	rows := []struct {
		a, b string
		q    MeasureValue
		p    MeasureValue
	}{
		{"a1", "b1", measured(5), measured(100)},
		{"a1", "b1", MeasureValue{}, measured(200)}, // q NULL
		{"a1", "b2", measured(7), measured(300)},
		{"a2", "b1", measured(11), measured(400)},
	}
	for _, r := range rows {
		if err := c.AddMeasured(id(r.a, r.b), []MeasureValue{r.q, r.p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddMeasured(id("a1", "b1"), []MeasureValue{measured(1)}); err == nil {
		t.Error("measure arity mismatch accepted")
	}

	check := func(mask uint32, key, col string, wantSum float64, wantNN int64) {
		t.Helper()
		s, nn, ok := measureOf(c, mask, key, col)
		if !ok || s != wantSum || nn != wantNN {
			t.Errorf("measure (%b, %q, %s) = %v, %v/%v, want %v, %v", mask, key, col, s, nn, ok, wantSum, wantNN)
		}
	}
	// Finest grouping (A,B): the NULL q row counts for the tuple count
	// but not the measure.
	check(0b11, id("a1", "b1").Key(), "q", 5, 1)
	check(0b11, id("a1", "b1").Key(), "p", 300, 2)
	if n := c.Count(0b11, id("a1", "b1").Key()); n != 2 {
		t.Errorf("finest count %d, want 2 (nulls still count tuples)", n)
	}
	// Grouping on A only: a1 rolls up b1+b2.
	check(0b01, "a1", "q", 12, 2)
	check(0b01, "a1", "p", 600, 3)
	// Empty grouping: grand totals.
	check(0, "", "q", 23, 3)
	check(0, "", "p", 1000, 4)
}

// TestMeasureMergeCloneRestoreEquivalence drives a randomized tuple
// stream three ways — one sequential cube, a K-way partition merged
// with Merge, and a State→RestoreCube round-trip — and requires every
// mask/group/measure cell to agree exactly. This is the property the
// hybrid estimator's sharded exports rely on: per-shard cubes must
// merge into precisely the single-scan cube.
func TestMeasureMergeCloneRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrs := []string{"A", "B", "C"}
	meas := []string{"q", "p"}
	seq, err := NewWithMeasures(attrs, meas)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	shards := make([]*Cube, parts)
	for i := range shards {
		if shards[i], err = NewWithMeasures(attrs, meas); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		gid := id(
			fmt.Sprintf("a%d", rng.Intn(4)),
			fmt.Sprintf("b%d", rng.Intn(3)),
			fmt.Sprintf("c%d", rng.Intn(5)),
		)
		vals := []MeasureValue{
			{V: rng.Float64() * 100, OK: rng.Intn(10) > 0}, // ~10% NULL
			{V: float64(rng.Intn(1000)), OK: true},
		}
		if err := seq.AddMeasured(gid, vals); err != nil {
			t.Fatal(err)
		}
		if err := shards[rng.Intn(parts)].AddMeasured(gid, vals); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := NewWithMeasures(attrs, meas)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := RestoreCube(seq.State())
	if err != nil {
		t.Fatal(err)
	}
	clone := seq.Clone()

	for name, got := range map[string]*Cube{"merged": merged, "restored": restored, "clone": clone} {
		if got.Total() != seq.Total() {
			t.Errorf("%s: total %d != %d", name, got.Total(), seq.Total())
			continue
		}
		for mask := uint32(0); int(mask) < seq.NumGroupings(); mask++ {
			if got.NumGroups(mask) != seq.NumGroups(mask) {
				t.Errorf("%s mask %b: %d groups != %d", name, mask, got.NumGroups(mask), seq.NumGroups(mask))
			}
			for _, col := range meas {
				ok := seq.MeasureGroupsUnder(mask, col, func(key string, count int64, sum float64, nonNull int64) {
					if gc := got.Count(mask, key); gc != count {
						t.Errorf("%s mask %b %q: count %d != %d", name, mask, key, gc, count)
					}
					gs, gn, _ := measureOf(got, mask, key, col)
					// Merge and restore add the same float values in a
					// different order (per finest group), so sums match
					// exactly only up to reassociation; counts are integers
					// and must be identical.
					if relErr := abs(gs-sum) / max1(abs(sum)); relErr > 1e-12 {
						t.Errorf("%s mask %b %q %s: sum %v != %v", name, mask, key, col, gs, sum)
					}
					if gn != nonNull {
						t.Errorf("%s mask %b %q %s: nonNull %d != %d", name, mask, key, col, gn, nonNull)
					}
				})
				if !ok {
					t.Fatalf("%s: measure %q lost", name, col)
				}
			}
		}
	}

	// Clone must be deep: mutating it cannot leak into the original.
	if err := clone.AddMeasured(id("a0", "b0", "c0"), []MeasureValue{measured(1e9), measured(1)}); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := measureOf(seq, 0, "", "q"); got >= 1e9 {
		t.Error("Clone shares measure maps with the original")
	}

	// Measure-set mismatches must refuse to merge.
	other := MustNew(attrs)
	if err := merged.Merge(other); err == nil {
		t.Error("merge of count-only cube into measured cube accepted")
	}
}

func TestAddMeasuredNValidation(t *testing.T) {
	c, err := NewWithMeasures([]string{"A"}, []string{"q"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddMeasuredN(id("x"), 3, []float64{1}, []int64{-1}); err == nil {
		t.Error("negative non-null count accepted")
	}
	if err := c.AddMeasuredN(id("x"), 3, []float64{1, 2}, []int64{1, 1}); err == nil {
		t.Error("measure batch arity mismatch accepted")
	}
	if err := c.AddMeasuredN(id("x"), 2, []float64{10}, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if s, _, _ := measureOf(c, 0b1, "x", "q"); s != 10 {
		t.Errorf("batch sum %v, want 10", s)
	}
	if n := c.Count(0b1, "x"); n != 2 {
		t.Errorf("batch count %d, want 2", n)
	}
}

// TestMeasureGroupsUnderSorted: every mask is visited in ascending key
// order, also after a mask gains groups between two visits (the cached
// order must not be served stale), and also when readers race to build
// the cache.
func TestMeasureGroupsUnderSorted(t *testing.T) {
	c, err := NewWithMeasures([]string{"A", "B"}, []string{"q"})
	if err != nil {
		t.Fatal(err)
	}
	keysOf := func(mask uint32) []string {
		var keys []string
		c.MeasureGroupsUnder(mask, "q", func(k string, _ int64, _ float64, _ int64) { keys = append(keys, k) })
		return keys
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 6; round++ {
		for i := 0; i < 20; i++ {
			gid := id(fmt.Sprintf("a%d", rng.Intn(9+round*10)), fmt.Sprintf("b%d", rng.Intn(5)))
			if err := c.AddMeasured(gid, []MeasureValue{measured(1)}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for mask := uint32(0); int(mask) < c.NumGroupings(); mask++ {
					c.sortedKeys(mask)
				}
			}()
		}
		wg.Wait()
		for mask := uint32(0); int(mask) < c.NumGroupings(); mask++ {
			keys := keysOf(mask)
			if len(keys) != c.NumGroups(mask) || !slices.IsSorted(keys) {
				t.Fatalf("round %d mask %b: %d keys of %d, sorted %v", round, mask, len(keys), c.NumGroups(mask), slices.IsSorted(keys))
			}
		}
	}
}

// TestAddMeasuredKeysMatchProject: the cube's cells equal a feed that
// builds every key with GroupID.Project, for counts and every measure,
// bit for bit, through AddMeasured and AddMeasuredN alike.
func TestAddMeasuredKeysMatchProject(t *testing.T) {
	attrs, meas := []string{"A", "B", "C"}, []string{"q", "p"}
	c, err := NewWithMeasures(attrs, meas)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << len(attrs)
	counts := make([]map[string]int64, n)
	sums := make([][]map[string]float64, len(meas))
	nonNull := make([][]map[string]int64, len(meas))
	for mask := range counts {
		counts[mask] = map[string]int64{}
	}
	for mi := range meas {
		sums[mi], nonNull[mi] = make([]map[string]float64, n), make([]map[string]int64, n)
		for mask := 0; mask < n; mask++ {
			sums[mi][mask], nonNull[mi][mask] = map[string]float64{}, map[string]int64{}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		gid := id(fmt.Sprintf("a%d", rng.Intn(4)), "", fmt.Sprintf("c%d", rng.Intn(30)))
		if rng.Intn(2) == 0 {
			gid[1] = fmt.Sprintf("b%d", rng.Intn(3))
		}
		count, vals := int64(1), []float64{rng.NormFloat64() * 1e3, rng.Float64()}
		nn := []int64{int64(rng.Intn(2)), 1}
		if i%3 == 0 {
			count = int64(rng.Intn(4))
			nn = []int64{int64(rng.Intn(3)), int64(rng.Intn(3))}
			if err := c.AddMeasuredN(gid, count, vals, nn); err != nil {
				t.Fatal(err)
			}
		} else {
			mv := []MeasureValue{{V: vals[0], OK: nn[0] == 1}, {V: vals[1], OK: true}}
			if err := c.AddMeasured(gid, mv); err != nil {
				t.Fatal(err)
			}
		}
		for mask := uint32(0); int(mask) < n; mask++ {
			key := gid.Project(mask)
			if count > 0 {
				counts[mask][key] += count
			}
			for mi := range meas {
				if nn[mi] == 0 && (i%3 != 0 || vals[mi] == 0) {
					continue
				}
				sums[mi][mask][key] += vals[mi]
				nonNull[mi][mask][key] += nn[mi]
			}
		}
	}
	for mask := 0; mask < n; mask++ {
		if !mapsEqual(c.counts[mask], counts[mask]) {
			t.Errorf("mask %b: counts differ", mask)
		}
		for mi := range meas {
			if !mapsEqual(c.sums[mi][mask], sums[mi][mask]) || !mapsEqual(c.nonNull[mi][mask], nonNull[mi][mask]) {
				t.Errorf("mask %b measure %s: cells differ", mask, meas[mi])
			}
		}
	}
}

// mapsEqual compares two maps cell by cell.
func mapsEqual[V int64 | float64](a, b map[string]V) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}
