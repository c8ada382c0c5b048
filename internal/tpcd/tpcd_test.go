package tpcd

import (
	"math"
	"testing"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
)

func TestPerColumnValues(t *testing.T) {
	cases := map[int]int{1: 1, 8: 2, 27: 3, 1000: 10, 10: 2, 100: 5, 200000: 58}
	for ng, want := range cases {
		if got := PerColumnValues(ng); got != want {
			t.Errorf("PerColumnValues(%d) = %d, want %d", ng, got, want)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	rel, err := Generate(Params{TableSize: 10000, NumGroups: 27, GroupSkew: 1.0, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 10000 {
		t.Fatalf("rows %d", rel.NumRows())
	}
	if rel.Schema.Len() != 6 {
		t.Fatalf("schema %v", rel.Schema.Names())
	}

	// Every group must be non-empty and group count must equal 27.
	g := core.MustGrouping(rel.Schema, GroupingAttrs)
	cube, err := core.BuildCube(rel, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := cube.NumGroups(cube.FinestMask()); got != 27 {
		t.Fatalf("finest groups %d, want 27", got)
	}
	// Per-column distinct counts are 3 each.
	for mask, want := range map[uint32]int{0b001: 3, 0b010: 3, 0b100: 3} {
		if got := cube.NumGroups(mask); got != want {
			t.Errorf("mask %b groups %d, want %d", mask, got, want)
		}
	}
}

func TestGenerateIDsSequentialAndShuffled(t *testing.T) {
	rel := MustGenerate(Params{TableSize: 5000, NumGroups: 8, GroupSkew: 1.5, Seed: 7})
	rows := rel.Rows()
	seen := make([]bool, len(rows)+1)
	for i, row := range rows {
		id := row[0].I
		if id < 1 || id > int64(len(rows)) || seen[id] {
			t.Fatalf("bad l_id %d at row %d", id, i)
		}
		seen[id] = true
	}
	// Shuffle check: consecutive ids should not all share a group.
	g := core.MustGrouping(rel.Schema, GroupingAttrs)
	sameGroupRuns := 0
	for i := 1; i < 1000; i++ {
		if g.Key(rows[i]) == g.Key(rows[i-1]) {
			sameGroupRuns++
		}
	}
	if sameGroupRuns > 900 {
		t.Errorf("rows appear sorted by group (%d/999 adjacent same-group)", sameGroupRuns)
	}
}

func TestGenerateSkewControlsGroupSizes(t *testing.T) {
	sizes := func(z float64) (min, max int64) {
		rel := MustGenerate(Params{TableSize: 50000, NumGroups: 64, GroupSkew: z, Seed: 3})
		g := core.MustGrouping(rel.Schema, GroupingAttrs)
		cube, _ := core.BuildCube(rel, g, 1)
		min, max = int64(1<<62), int64(0)
		cube.FinestGroups(func(_ string, n int64) {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		})
		return
	}
	uMin, uMax := sizes(0.0001) // effectively uniform (z=0 is remapped by withDefaults)
	if float64(uMax)/float64(uMin) > 1.5 {
		t.Errorf("near-uniform skew produced ratio %d/%d", uMax, uMin)
	}
	sMin, sMax := sizes(1.5)
	if float64(sMax)/float64(sMin) < 50 {
		t.Errorf("z=1.5 produced weak skew ratio %d/%d", sMax, sMin)
	}
	if sMin < 1 {
		t.Error("skewed generation left an empty group")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Params{TableSize: 2000, NumGroups: 8, Seed: 11})
	b := MustGenerate(Params{TableSize: 2000, NumGroups: 8, Seed: 11})
	ra, rb := a.Rows(), b.Rows()
	for i := range ra {
		for j := range ra[i] {
			if !ra[i][j].Equal(rb[i][j]) {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, ra[i][j], rb[i][j])
			}
		}
	}
}

func TestGenerateAggSkew(t *testing.T) {
	rel := MustGenerate(Params{TableSize: 20000, NumGroups: 8, AggSkew: 0.86, Seed: 5})
	// The most common quantity value should dominate under z=0.86.
	counts := map[float64]int{}
	for _, row := range rel.Rows() {
		counts[row[4].F]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if frac := float64(maxCount) / 20000; frac < 0.05 {
		t.Errorf("top aggregate value holds %.3f of rows; expected Zipf concentration", frac)
	}
	// Values must be positive.
	for _, row := range rel.Rows()[:100] {
		if row[4].F <= 0 || row[5].F <= 0 {
			t.Fatalf("non-positive aggregate value %v/%v", row[4], row[5])
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Params{TableSize: 10, NumGroups: 1000}); err == nil {
		t.Error("table smaller than group count accepted")
	}
	if _, err := Generate(Params{TableSize: -5}); err == nil {
		t.Error("negative size accepted")
	}
}

func TestGenerateDatesInWindow(t *testing.T) {
	rel := MustGenerate(Params{TableSize: 1000, NumGroups: 27, Seed: 9})
	lo := engine.MustParseDate("1992-01-01")
	hi := engine.MustParseDate("1998-12-31")
	for _, row := range rel.Rows() {
		d := row[3]
		if d.K != engine.KindDate || d.Compare(lo) < 0 || d.Compare(hi) > 0 {
			t.Fatalf("date %v outside TPC-D window", d)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := Params{}.withDefaults()
	if p.TableSize != 1_000_000 || p.NumGroups != 1000 || math.Abs(p.GroupSkew-0.86) > 1e-12 {
		t.Errorf("defaults %+v", p)
	}
}
