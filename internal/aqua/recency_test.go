package aqua

import (
	"testing"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
)

// recencyFixture builds a table with four equal-sized month groups so
// any sample-size difference between months is purely the ageing bias.
func recencyFixture(t testing.TB) (*Aqua, *engine.Catalog) {
	t.Helper()
	cat := engine.NewCatalog()
	rel := engine.NewRelation("events", engine.MustSchema(
		engine.Column{Name: "month", Kind: engine.KindDate},
		engine.Column{Name: "kind", Kind: engine.KindString},
		engine.Column{Name: "v", Kind: engine.KindFloat},
	))
	months := []string{"1998-01-01", "1998-02-01", "1998-03-01", "1998-04-01"}
	for _, m := range months {
		d := engine.MustParseDate(m)
		for i := 0; i < 5000; i++ {
			kind := "a"
			if i%2 == 0 {
				kind = "b"
			}
			rel.Insert(engine.Row{d, engine.NewString(kind), engine.NewFloat(float64(i))})
		}
	}
	cat.Register(rel)
	return New(cat), cat
}

func monthSizes(t *testing.T, s *Synopsis) map[string]int {
	t.Helper()
	sizes := map[string]int{}
	v := s.Strata()
	for _, r := range v.Ranges() {
		if r.Hi > r.Lo {
			sizes[v.Row(r.Lo)[0].String()] += r.Hi - r.Lo
		}
	}
	return sizes
}

func TestRecencyBiasShiftsSpaceToNewData(t *testing.T) {
	a, _ := recencyFixture(t)
	s, err := a.CreateSynopsis(Config{
		Table:     "events",
		GroupCols: []string{"month", "kind"},
		Space:     800,
		Strategy:  core.Congress,
		Recency:   &Recency{Column: "month", Decay: 0.3},
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := monthSizes(t, s)
	if len(sizes) != 4 {
		t.Fatalf("month sizes %v", sizes)
	}
	newest := sizes["1998-04-01"]
	oldest := sizes["1998-01-01"]
	if newest <= oldest {
		t.Errorf("recency bias had no effect: newest %d, oldest %d", newest, oldest)
	}
	if float64(newest) < 1.5*float64(oldest) {
		t.Errorf("bias too weak: newest %d vs oldest %d", newest, oldest)
	}
	// Without the bias, months are equal-sized groups and get equal
	// space under Congress.
	s2, err := a.CreateSynopsis(Config{
		Table: "events", GroupCols: []string{"month", "kind"},
		Space: 800, Strategy: core.Congress, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat := monthSizes(t, s2)
	if flat["1998-04-01"] != flat["1998-01-01"] {
		t.Errorf("unbiased congress should be flat across equal months: %v", flat)
	}
	// Old groups keep a floor: queries over January still answer.
	if oldest < 20 {
		t.Errorf("old month starved: %d tuples", oldest)
	}
}

func TestRecencyValidation(t *testing.T) {
	a, _ := recencyFixture(t)
	cases := []*Recency{
		{Column: "month", Decay: 0},
		{Column: "month", Decay: 1.5},
		{Column: "ghost", Decay: 0.5},
		{Column: "v", Decay: 0.5}, // not a grouping column
	}
	for i, r := range cases {
		if _, err := a.CreateSynopsis(Config{
			Table: "events", GroupCols: []string{"month", "kind"},
			Space: 100, Recency: r,
		}); err == nil {
			t.Errorf("bad recency %d accepted", i)
		}
	}
}

func TestRecencyDecayOneIsUniformPreference(t *testing.T) {
	a, _ := recencyFixture(t)
	s, err := a.CreateSynopsis(Config{
		Table: "events", GroupCols: []string{"month", "kind"},
		Space: 800, Strategy: core.Congress,
		Recency: &Recency{Column: "month", Decay: 1.0}, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := monthSizes(t, s)
	if sizes["1998-04-01"] != sizes["1998-01-01"] {
		t.Errorf("decay=1 should not skew: %v", sizes)
	}
}
