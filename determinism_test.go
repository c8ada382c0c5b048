package congress

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/tpcd"
)

// TestBuildIsDeterministic: a synopsis is a function of (data, spec,
// seed). Repeated builds in one process must hash-equal on the finest
// sample partials (hybrid off, so the sample answers) plus the
// allocation table, for every strategy and every allocation input. Each
// case logs one "build hash <case> <sha256>" line; CI diffs those lines
// between a GOMAXPROCS=1 and a GOMAXPROCS=4 run, which catches what one
// process cannot see: per-process map seeds and core-count dependence.
func TestBuildIsDeterministic(t *testing.T) {
	rel, err := tpcd.Generate(tpcd.Params{TableSize: 6000, NumGroups: 200, GroupSkew: 0.86, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		set  func(*SynopsisSpec)
	}{
		{"plain", func(*SynopsisSpec) {}},
		{"targets", func(s *SynopsisSpec) { s.TargetGroupings = [][]string{{}, {"l_returnflag"}, tpcd.GroupingAttrs} }},
		{"variance", func(s *SynopsisSpec) { s.VarianceColumn = "l_extendedprice" }},
		{"recency", func(s *SynopsisSpec) { s.Recency = &Recency{Column: "l_shipdate", Decay: 0.9} }},
	}
	for _, strategy := range []Strategy{House, Senate, BasicCongress, Congress} {
		for _, v := range variants {
			spec := SynopsisSpec{Table: rel.Name, GroupBy: tpcd.GroupingAttrs, Space: 600, Strategy: strategy, Seed: 1}
			v.set(&spec)
			name := strategy.String() + "/" + v.name
			first := buildHash(t, rel, spec)
			for run := 1; run < 3; run++ {
				if h := buildHash(t, rel, spec); h != first {
					t.Errorf("%s: build %d hashes %s, build 0 %s", name, run, h, first)
				}
			}
			t.Logf("build hash %s %s", name, first)
		}
	}
}

// buildHash builds spec over rel in a fresh warehouse and hashes the
// encoded finest sample partials and the allocation table.
func buildHash(t *testing.T, rel *engine.Relation, spec SynopsisSpec) string {
	t.Helper()
	w := Open()
	if _, err := w.AttachRelation(rel); err != nil {
		t.Fatal(err)
	}
	if err := w.BuildSynopsis(spec); err != nil {
		t.Fatal(err)
	}
	parts, err := w.EstimatePartialsOpts(context.Background(), spec.Table, spec.GroupBy, "l_extendedprice", PartialsOptions{NoHybrid: true})
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := w.AllocationTable(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(estimate.EncodePartials(parts, 0))
	fmt.Fprintf(h, "%v", alloc)
	return fmt.Sprintf("%x", h.Sum(nil))
}
