package aqua

import (
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/tpcd"
)

// partialsSink keeps benchmark results alive.
var partialsSink []estimate.GroupPartial

// BenchmarkExactPartials times a finest-grouping hybrid answer from the
// exact cube over ~1000 finest groups.
func BenchmarkExactPartials(b *testing.B) {
	cat := engine.NewCatalog()
	rel := tpcd.MustGenerate(tpcd.Params{TableSize: 60000, NumGroups: 1000, GroupSkew: 0.86, Seed: 3})
	cat.Register(rel)
	s, err := New(cat).CreateSynopsis(Config{
		Table: "lineitem", GroupCols: tpcd.GroupingAttrs, Strategy: core.Congress, Space: 4000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cols := make([]int, len(tpcd.GroupingAttrs))
	for i, c := range tpcd.GroupingAttrs {
		cols[i] = rel.Schema.Index(c)
	}
	agg := rel.Schema.Index("l_quantity")
	if parts, ok := s.ExactPartials(cols, agg); !ok || len(parts) < 900 {
		b.Fatalf("exact partials: %d groups, ok %v", len(parts), ok)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partialsSink, _ = s.ExactPartials(cols, agg)
	}
}

// TestExactPartialsEveryRequest: for every grouping request over G —
// each subset, the empty one included, in every order and with a
// repeated column — the cube's answer equals a scan of the base rows
// that keys each row by its rendered values in request order: same
// keys, sorted, and the same sums bit for bit (the cube is fed in row
// order, so each group's additions happen in the same order).
func TestExactPartialsEveryRequest(t *testing.T) {
	a, cat := newTestAqua(t, core.Congress, 600)
	s, _ := a.Synopsis("lineitem")
	rel, _ := cat.Lookup("lineitem")
	g := make([]int, len(tpcd.GroupingAttrs))
	for i, c := range tpcd.GroupingAttrs {
		g[i] = rel.Schema.Index(c)
	}
	agg := rel.Schema.Index("l_extendedprice")
	reqs := [][]int{nil}
	for prev := reqs; len(prev[0]) < len(g)+1; {
		var next [][]int
		for _, r := range prev {
			for _, c := range g {
				next = append(next, append(append([]int(nil), r...), c))
			}
		}
		reqs, prev = append(reqs, next...), next
	}
	for _, req := range reqs {
		sums, counts := map[string]float64{}, map[string]int64{}
		parts := make([]string, len(req))
		for _, row := range rel.Rows() {
			for i, c := range req {
				parts[i] = row[c].String()
			}
			key := strings.Join(parts, datacube.KeySep)
			if v, ok := row[agg].AsFloat(); ok {
				sums[key] += v
				counts[key]++
			}
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		got, ok := s.ExactPartials(req, agg)
		if !ok || len(got) != len(keys) {
			t.Fatalf("%v: %d groups (ok %v), want %d", req, len(got), ok, len(keys))
		}
		for i, p := range got {
			k := keys[i]
			if p.Key != k || math.Float64bits(p.ExactSum) != math.Float64bits(sums[k]) || p.ExactCount != float64(counts[k]) {
				t.Fatalf("%v group %d: %q %v/%v, want %q %v/%v", req, i, p.Key, p.ExactSum, p.ExactCount, k, sums[k], counts[k])
			}
		}
	}
}
