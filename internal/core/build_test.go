package core

import (
	"math"
	"strconv"
	"testing"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// sampleStratum abbreviates the instantiated stratum type in tests.
type sampleStratum = sample.Stratum[engine.Row]

// rowKey computes the finest-group key a Grouping over string columns
// would produce for the given attribute values.
func rowKey(parts ...string) string {
	id := make(datacube.GroupID, len(parts))
	for i, p := range parts {
		id[i] = engine.NewString(p).GroupKey()
	}
	return id.Key()
}

// buildRelation creates a two-grouping-column relation with the given
// per-group sizes; values column v carries the tuple ordinal.
func buildRelation(t testing.TB, groups map[[2]string]int) (*engine.Relation, *Grouping) {
	t.Helper()
	rel := engine.NewRelation("r", engine.MustSchema(
		engine.Column{Name: "a", Kind: engine.KindString},
		engine.Column{Name: "b", Kind: engine.KindString},
		engine.Column{Name: "v", Kind: engine.KindInt},
	))
	i := int64(0)
	for g, n := range groups {
		for j := 0; j < n; j++ {
			if err := rel.Insert(engine.Row{engine.NewString(g[0]), engine.NewString(g[1]), engine.NewInt(i)}); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	return rel, MustGrouping(rel.Schema, []string{"a", "b"})
}

// buildSample is the one-pass construction a synopsis build runs: the
// cube, the allocation, then the materializer.
func buildSample(rel *engine.Relation, g *Grouping, strategy Strategy, x int, seed int64, workers int) (*sample.Stratified[engine.Row], *Allocation, error) {
	cube, err := BuildCube(rel, g, workers)
	if err != nil {
		return nil, nil, err
	}
	alloc, err := Allocate(strategy, cube, x)
	if err != nil {
		return nil, nil, err
	}
	st, err := Materialize(rel, g, cube, alloc, seed, workers)
	if err != nil {
		return nil, nil, err
	}
	return st, alloc, nil
}

func TestNewGroupingValidation(t *testing.T) {
	schema := engine.MustSchema(engine.Column{Name: "x", Kind: engine.KindInt})
	if _, err := NewGrouping(schema, nil); err == nil {
		t.Error("empty grouping accepted")
	}
	if _, err := NewGrouping(schema, []string{"nope"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGrouping did not panic")
		}
	}()
	MustGrouping(schema, []string{"nope"})
}

func TestGroupingKeyAndID(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{{"x", "y"}: 1})
	row := rel.Rows()[0]
	id := g.ID(row)
	if len(id) != 2 {
		t.Fatalf("id len %d", len(id))
	}
	if g.Key(row) != id.Key() {
		t.Error("Key and ID.Key disagree")
	}
	// Single-column fast path.
	g1 := MustGrouping(rel.Schema, []string{"a"})
	if g1.Key(row) != g1.ID(row).Key() {
		t.Error("single-column Key fast path diverges")
	}
}

func TestBuildCubeCounts(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{
		{"a1", "b1"}: 30, {"a1", "b2"}: 20, {"a2", "b1"}: 50,
	})
	cube, err := BuildCube(rel, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cube.Total() != 100 {
		t.Fatalf("total %d", cube.Total())
	}
	if cube.NumGroups(cube.FinestMask()) != 3 {
		t.Fatalf("finest groups %d", cube.NumGroups(cube.FinestMask()))
	}
	// Grouping on a (bit 0): a1=50, a2=50.
	if cube.NumGroups(0b01) != 2 {
		t.Fatalf("groups under a: %d", cube.NumGroups(0b01))
	}
}

func TestBuildSenateEqualSizes(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{
		{"a1", "b1"}: 1000, {"a1", "b2"}: 500, {"a2", "b1"}: 100, {"a2", "b2"}: 60,
	})
	st, alloc, err := buildSample(rel, g, Senate, 80, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.ScaleDown != 1 {
		t.Errorf("senate scale-down %v", alloc.ScaleDown)
	}
	if st.Size() != 80 {
		t.Fatalf("sample size %d, want 80", st.Size())
	}
	st.Each(func(s *sampleStratum) {
		if len(s.Items) != 20 {
			t.Errorf("stratum %q size %d, want 20", s.Key, len(s.Items))
		}
	})
}

func TestBuildHouseProportional(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{
		{"a1", "b1"}: 900, {"a2", "b2"}: 100,
	})
	st, _, err := buildSample(rel, g, House, 100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, _ := st.Get(rowKey("a1", "b1"))
	small, _ := st.Get(rowKey("a2", "b2"))
	if len(big.Items) != 90 || len(small.Items) != 10 {
		t.Errorf("house sizes %d/%d, want 90/10", len(big.Items), len(small.Items))
	}
}

func TestBuildCongressSmallGroupGuarantee(t *testing.T) {
	// With a very skewed relation, Congress must still give the small
	// groups materially more than House does.
	groups := map[[2]string]int{}
	for i := 0; i < 8; i++ {
		groups[[2]string{"a0", "b" + strconv.Itoa(i)}] = 10000
	}
	groups[[2]string{"a1", "btiny"}] = 50
	rel, g := buildRelation(t, groups)

	houseSt, _, err := buildSample(rel, g, House, 800, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	congSt, _, err := buildSample(rel, g, Congress, 800, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	hTiny, _ := houseSt.Get(rowKey("a1", "btiny"))
	cTiny, _ := congSt.Get(rowKey("a1", "btiny"))
	if len(cTiny.Items) < 5*max(1, len(hTiny.Items)) {
		t.Errorf("congress gave tiny group %d tuples vs house %d; expected a big boost",
			len(cTiny.Items), len(hTiny.Items))
	}
}

func TestBuildSampleTuplesComeFromOwnGroup(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{
		{"a1", "b1"}: 200, {"a2", "b2"}: 200,
	})
	st, _, err := buildSample(rel, g, Congress, 50, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Each(func(s *sampleStratum) {
		for _, row := range s.Items {
			if g.Key(row) != s.Key {
				t.Fatalf("stratum %q contains foreign tuple of group %q", s.Key, g.Key(row))
			}
		}
	})
}

// TestMaterializeUniformWithinGroup draws many samples and checks each
// tuple of a group is included approximately equally often (the S1
// requirement of uniform sampling within each group).
func TestMaterializeUniformWithinGroup(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{{"a1", "b1"}: 40})
	counts := make(map[int64]int)
	const trials = 4000
	for i := 0; i < trials; i++ {
		st, _, err := buildSample(rel, g, Senate, 10, int64(i+1), 1)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := st.Get(rowKey("a1", "b1"))
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
}

func TestBuildErrors(t *testing.T) {
	rel := engine.NewRelation("empty", engine.MustSchema(
		engine.Column{Name: "a", Kind: engine.KindString},
	))
	g := MustGrouping(rel.Schema, []string{"a"})
	if _, _, err := buildSample(rel, g, Congress, 10, 6, 1); err == nil {
		t.Error("building over empty relation succeeded")
	}
}
