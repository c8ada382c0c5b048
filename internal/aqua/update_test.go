package aqua

import (
	"testing"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/rewrite"
)

func TestUpdateScaleFactorTouchCounts(t *testing.T) {
	a, cat := newTestAqua(t, core.Congress, 1000)
	s, _ := a.Synopsis("lineitem")

	// Pick the largest stratum.
	var key string
	var stratumSize int
	for _, r := range s.Strata().Ranges() {
		if r.Hi-r.Lo > stratumSize {
			stratumSize = r.Hi - r.Lo
			key = r.Key
		}
	}
	if stratumSize == 0 {
		t.Fatal("no non-empty stratum")
	}

	// Integrated: one touched row per sampled tuple of the group.
	n, err := a.UpdateScaleFactor("lineitem", rewrite.Integrated, key, 123.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != stratumSize {
		t.Errorf("integrated touched %d rows, want %d (per-tuple SF)", n, stratumSize)
	}
	// The change is visible to queries.
	cs, _ := cat.Lookup("cs_lineitem")
	found := 0
	sfIdx := cs.Schema.Index("sf")
	for _, row := range cs.Rows() {
		if row[sfIdx].F == 123.5 {
			found++
		}
	}
	if found != stratumSize {
		t.Errorf("sf update visible on %d rows, want %d", found, stratumSize)
	}

	// Normalized / Key-normalized: exactly one aux row each.
	n, err = a.UpdateScaleFactor("lineitem", rewrite.Normalized, key, 123.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("normalized touched %d rows, want 1", n)
	}
	n, err = a.UpdateScaleFactor("lineitem", rewrite.KeyNormalized, key, 123.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("key-normalized touched %d rows, want 1", n)
	}
}

func TestUpdateScaleFactorErrors(t *testing.T) {
	a, _ := newTestAqua(t, core.Congress, 200)
	if _, err := a.UpdateScaleFactor("ghost", rewrite.Integrated, "k", 1); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := a.UpdateScaleFactor("lineitem", rewrite.Integrated, "nokey", 1); err == nil {
		t.Error("unknown group accepted")
	}
	if _, err := a.UpdateScaleFactor("lineitem", rewrite.Strategy(99), anyStratumKey(a), 1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func anyStratumKey(a *Aqua) string {
	s, _ := a.Synopsis("lineitem")
	for _, r := range s.Strata().Ranges() {
		if r.Hi > r.Lo {
			return r.Key
		}
	}
	return ""
}

func TestRelationUpdateArityGuard(t *testing.T) {
	rel := engine.NewRelation("t", engine.MustSchema(engine.Column{Name: "a", Kind: engine.KindInt}))
	rel.Insert(engine.Row{engine.NewInt(1)})
	if _, err := rel.Update(
		func(engine.Row) bool { return true },
		func(engine.Row) engine.Row { return engine.Row{engine.NewInt(1), engine.NewInt(2)} },
	); err == nil {
		t.Error("arity-breaking update accepted")
	}
}
