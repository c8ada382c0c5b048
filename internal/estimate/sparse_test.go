package estimate

import (
	"encoding/json"
	"math"
	"testing"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// sparseSample builds a stratified sample with one well-populated
// stratum and one stratum holding a single sampled row standing in for a
// large population (sf >> 1) — the shape that used to produce a 0
// ("perfectly certain") bound because the sample variance needs n >= 2.
func sparseSample() *sample.Stratified[engine.Row] {
	st := sample.NewStratified[engine.Row]()
	big := &sample.Stratum[engine.Row]{Key: "big", Population: 100}
	for i := 0; i < 50; i++ {
		big.Items = append(big.Items, engine.Row{engine.NewString("big"), engine.NewFloat(float64(10 + i%5))})
	}
	st.Put(big)
	st.Put(&sample.Stratum[engine.Row]{
		Key:        "tiny",
		Population: 1000, // sf = 1000: one row represents a thousand
		Items:      []engine.Row{{engine.NewString("tiny"), engine.NewFloat(42)}},
	})
	return st
}

func findGroup(t *testing.T, ests []GroupEstimate, key string) GroupEstimate {
	t.Helper()
	for _, e := range ests {
		if e.Key == key {
			return e
		}
	}
	t.Fatalf("group %q missing from %v", key, ests)
	return GroupEstimate{}
}

func TestOneRowStratumBoundDefined(t *testing.T) {
	for _, agg := range []Aggregate{Sum, Avg} {
		ests, err := run(sparseSample(), byGroup, valueCol, agg, 0)
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		tiny := findGroup(t, ests, "tiny")
		if tiny.SampleN != 1 {
			t.Fatalf("%v: SampleN = %d, want 1", agg, tiny.SampleN)
		}
		if math.IsNaN(tiny.Bound) || math.IsInf(tiny.Bound, 0) {
			t.Errorf("%v: bound is not finite: %v", agg, tiny.Bound)
		}
		if tiny.Bound <= 0 {
			t.Errorf("%v: bound = %v; a 1-row stratum at sf=1000 must not claim certainty", agg, tiny.Bound)
		}
	}
}

func TestOneRowStratumCountBound(t *testing.T) {
	ests, err := run(sparseSample(), byGroup, valueCol, Count, 0)
	if err != nil {
		t.Fatal(err)
	}
	tiny := findGroup(t, ests, "tiny")
	if tiny.Value != 1000 {
		t.Errorf("count = %v, want 1000", tiny.Value)
	}
	// HT count variance sf·(sf−1) is defined for n=1; must be positive
	// and finite.
	if !(tiny.Bound > 0) || math.IsInf(tiny.Bound, 0) {
		t.Errorf("count bound = %v, want finite positive", tiny.Bound)
	}
}

func TestFullyEnumeratedSingletonStaysExact(t *testing.T) {
	// One row at sf == 1 is the entire stratum: zero uncertainty is the
	// truth, the fallback must not fire.
	st := sample.NewStratified[engine.Row]()
	st.Put(&sample.Stratum[engine.Row]{
		Key:        "solo",
		Population: 1,
		Items:      []engine.Row{{engine.NewString("solo"), engine.NewFloat(7)}},
	})
	ests, err := run(st, byGroup, valueCol, Sum, 0)
	if err != nil {
		t.Fatal(err)
	}
	solo := findGroup(t, ests, "solo")
	if solo.Value != 7 || solo.Bound != 0 {
		t.Errorf("got value=%v bound=%v, want 7 with exact (0) bound", solo.Value, solo.Bound)
	}
}

func TestSparseBoundsSerializeAsJSON(t *testing.T) {
	for _, agg := range []Aggregate{Sum, Count, Avg} {
		ests, err := run(sparseSample(), byGroup, valueCol, agg, 0)
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		if _, err := json.Marshal(ests); err != nil {
			t.Errorf("%v: estimates do not serialize: %v", agg, err)
		}
	}
}
