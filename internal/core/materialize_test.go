package core

import (
	"fmt"
	"math"
	"testing"
)

// stratumFingerprint renders a stratified sample into a comparable form:
// per-stratum populations plus the exact multiset of sampled tuples.
func stratumFingerprint(t *testing.T, st interface {
	Each(func(*sampleStratum))
}) string {
	t.Helper()
	out := ""
	st.Each(func(s *sampleStratum) {
		out += fmt.Sprintf("%q pop=%d:", s.Key, s.Population)
		for _, row := range s.Items {
			out += fmt.Sprintf(" %d", row[2].I)
		}
		out += "\n"
	})
	return out
}

// TestBuildCubeParallelMatchesSequential: the cube is the same at every
// worker count, since per-chunk counts add up.
func TestBuildCubeParallelMatchesSequential(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{
		{"a1", "b1"}: 3000, {"a1", "b2"}: 700, {"a2", "b1"}: 90, {"a2", "b3"}: 11,
	})
	seq, err := BuildCube(rel, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		par, err := BuildCube(rel, g, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.Total() != seq.Total() {
			t.Fatalf("workers=%d: total %d vs %d", workers, par.Total(), seq.Total())
		}
		for mask := uint32(0); int(mask) < seq.NumGroupings(); mask++ {
			seq.GroupsUnder(mask, func(key string, n int64) {
				if got := par.Count(mask, key); got != n {
					t.Errorf("workers=%d mask=%b group %q: count %d vs %d", workers, mask, key, got, n)
				}
			})
			if par.NumGroups(mask) != seq.NumGroups(mask) {
				t.Errorf("workers=%d mask=%b: %d groups vs %d", workers, mask, par.NumGroups(mask), seq.NumGroups(mask))
			}
		}
	}
}

func TestCubeMergeRejectsMismatchedAttrs(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{{"a1", "b1"}: 5})
	cube, err := BuildCube(rel, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1 := MustGrouping(rel.Schema, []string{"a"})
	other, err := BuildCube(rel, g1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cube.Merge(other); err == nil {
		t.Error("merge of mismatched cubes accepted")
	}
}

// TestSampleIndependentOfWorkers is the point of the bottom-k
// materializer: every split of the scan keeps the same rows, so the
// sample for a seed is the same at every worker count, and two runs at
// one count agree too.
func TestSampleIndependentOfWorkers(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{
		{"a1", "b1"}: 5000, {"a1", "b2"}: 1200, {"a2", "b1"}: 300, {"a2", "b2"}: 40, {"a3", "b3"}: 7,
	})
	cube, err := BuildCube(rel, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Allocate(Congress, cube, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 42} {
		st, err := Materialize(rel, g, cube, alloc, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := stratumFingerprint(t, st)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			st, err := Materialize(rel, g, cube, alloc, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := stratumFingerprint(t, st); got != want {
				t.Errorf("seed %d: workers=%d draws another sample than workers=1:\n%s\nvs\n%s", seed, workers, got, want)
			}
		}
	}
}

// TestMaterializeParallelSizesAndMembership: every stratum must hit the
// integer target exactly (min(target, population)), contain only tuples
// of its own group, and never contain a duplicate base tuple.
func TestMaterializeParallelSizesAndMembership(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{
		{"a1", "b1"}: 4000, {"a1", "b2"}: 800, {"a2", "b1"}: 150, {"a2", "b2"}: 12, {"a3", "b1"}: 3,
	})
	cube, err := BuildCube(rel, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Allocate(Congress, cube, 500)
	if err != nil {
		t.Fatal(err)
	}
	populations := make(map[string]int64)
	cube.FinestGroups(func(key string, n int64) { populations[key] = n })
	targets := alloc.IntegerTargets(populations)

	for _, workers := range []int{1, 2, 5, 8} {
		st, err := Materialize(rel, g, cube, alloc, 9, workers)
		if err != nil {
			t.Fatal(err)
		}
		st.Each(func(s *sampleStratum) {
			want := targets[s.Key]
			if int64(want) > s.Population {
				want = int(s.Population)
			}
			if len(s.Items) != want {
				t.Errorf("workers=%d stratum %q: %d items, want %d", workers, s.Key, len(s.Items), want)
			}
			seen := make(map[int64]bool, len(s.Items))
			for _, row := range s.Items {
				if g.Key(row) != s.Key {
					t.Errorf("workers=%d stratum %q holds foreign tuple of group %q", workers, s.Key, g.Key(row))
				}
				if seen[row[2].I] {
					t.Errorf("workers=%d stratum %q holds duplicate tuple %d", workers, s.Key, row[2].I)
				}
				seen[row[2].I] = true
			}
		})
	}
}

// TestMaterializeParallelUniformWithinGroup repeats the S1 uniformity
// check for the bottom-k sample: across many seeds, every tuple of a
// group must be included about equally often, at any worker count. The
// one-group case runs 4000 seeds. On a skewed table each row's inclusion
// count over 200 seeds is Binomial(200, n_h/N_h); at most a tenth of
// the rows may land beyond 2σ (a share near 5% is expected) and none
// beyond 6σ.
func TestMaterializeParallelUniformWithinGroup(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{{"a1", "b1"}: 40})
	cube, err := BuildCube(rel, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Allocate(Senate, cube, 10)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int64]int)
	const trials = 4000
	for i := 0; i < trials; i++ {
		st, err := Materialize(rel, g, cube, alloc, int64(i+1), 4)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := st.Get(rowKey("a1", "b1"))
		if len(s.Items) != 10 {
			t.Fatalf("trial %d: %d items, want 10", i, len(s.Items))
		}
		for _, row := range s.Items {
			counts[row[2].I]++
		}
	}
	want := float64(trials) * 10 / 40
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("tuple %d included %d times, want ~%.0f", v, c, want)
		}
	}

	rel, g = buildRelation(t, map[[2]string]int{
		{"a1", "b1"}: 2000, {"a1", "b2"}: 300, {"a2", "b1"}: 40, {"a3", "b3"}: 6,
	})
	if cube, err = BuildCube(rel, g, 1); err != nil {
		t.Fatal(err)
	}
	if alloc, err = Allocate(Congress, cube, 200); err != nil {
		t.Fatal(err)
	}
	const seeds = 200
	for _, workers := range []int{1, 4} {
		included := make(map[int64]int)
		sizes := make(map[string]int)
		for seed := int64(1); seed <= seeds; seed++ {
			st, err := Materialize(rel, g, cube, alloc, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			st.Each(func(s *sampleStratum) {
				sizes[s.Key] = len(s.Items)
				for _, row := range s.Items {
					included[row[2].I]++
				}
			})
		}
		var rows, beyond2 int
		for _, row := range rel.Rows() {
			key := g.Key(row)
			p := float64(sizes[key]) / float64(cube.Count(cube.FinestMask(), key))
			c := included[row[2].I]
			if p == 1 {
				if c != seeds {
					t.Errorf("workers=%d: row %d of a fully sampled group included %d of %d times", workers, row[2].I, c, seeds)
				}
				continue
			}
			sigma := math.Sqrt(seeds * p * (1 - p))
			z := math.Abs(float64(c)-seeds*p) / sigma
			rows++
			if z > 2 {
				beyond2++
			}
			if z > 6 {
				t.Errorf("workers=%d: row %d included %d times, want %.1f ± %.1f", workers, row[2].I, c, seeds*p, sigma)
			}
		}
		if share := float64(beyond2) / float64(rows); share > 0.1 {
			t.Errorf("workers=%d: %d of %d rows beyond 2σ of n_h/N_h (%.1f%%)", workers, beyond2, rows, 100*share)
		}
		t.Logf("workers=%d: %d of %d rows beyond 2σ", workers, beyond2, rows)
	}
}

func TestBuildParallel(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{
		{"a1", "b1"}: 1000, {"a2", "b2"}: 100, {"a3", "b3"}: 10,
	})
	st, alloc, err := buildSample(rel, g, Congress, 200, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 || alloc == nil {
		t.Fatalf("empty parallel build: size=%d", st.Size())
	}
	if st.Population() != 1110 {
		t.Fatalf("population %d", st.Population())
	}
}
