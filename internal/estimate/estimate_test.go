package estimate

import (
	"math"
	"testing"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/interval"
	"github.com/approxdb/congress/internal/sample"
)

// twoStratumSample builds a stratified sample with two strata:
//
//	g1: population 100, sampled {10, 20} (rate 2%)
//	g2: population 50, sampled {5}      (rate 2%)
func twoStratumSample() *sample.Stratified[engine.Row] {
	st := sample.NewStratified[engine.Row]()
	row := func(g string, v float64) engine.Row {
		return engine.Row{engine.NewString(g), engine.NewFloat(v)}
	}
	st.Put(&sample.Stratum[engine.Row]{
		Key: "g1", Population: 100,
		Items: []engine.Row{row("g1", 10), row("g1", 20)},
	})
	st.Put(&sample.Stratum[engine.Row]{
		Key: "g2", Population: 50,
		Items: []engine.Row{row("g2", 5)},
	})
	return st
}

func valueCol(row engine.Row) (float64, bool) { return row[1].F, true }
func groupCol(row engine.Row) string          { return row[0].S }

func TestRunSumPerGroup(t *testing.T) {
	ests, err := Run(twoStratumSample(), Query{
		GroupKey: groupCol,
		Value:    valueCol,
		Agg:      Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]GroupEstimate{}
	for _, e := range ests {
		byKey[e.Key] = e
	}
	// g1: SF 50, scaled sum (10+20)*50 = 1500. g2: SF 50, 5*50 = 250.
	if g := byKey["g1"]; math.Abs(g.Value-1500) > 1e-9 || g.SampleN != 2 {
		t.Errorf("g1 = %+v", g)
	}
	if g := byKey["g2"]; math.Abs(g.Value-250) > 1e-9 {
		t.Errorf("g2 = %+v", g)
	}
	if byKey["g1"].Bound <= 0 {
		t.Error("multi-tuple stratum should have a positive bound")
	}
}

func TestRunCountAndAvg(t *testing.T) {
	ests, err := Run(twoStratumSample(), Query{GroupKey: groupCol, Value: valueCol, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ests {
		switch e.Key {
		case "g1":
			if math.Abs(e.Value-100) > 1e-9 {
				t.Errorf("g1 count %v", e.Value)
			}
		case "g2":
			if math.Abs(e.Value-50) > 1e-9 {
				t.Errorf("g2 count %v", e.Value)
			}
		}
	}
	ests, err = Run(twoStratumSample(), Query{GroupKey: groupCol, Value: valueCol, Agg: Avg})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ests {
		if e.Key == "g1" && math.Abs(e.Value-15) > 1e-9 {
			t.Errorf("g1 avg %v", e.Value)
		}
	}
}

func TestRunNoGroupBy(t *testing.T) {
	ests, err := Run(twoStratumSample(), Query{Value: valueCol, Agg: Sum})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 1 || ests[0].Key != "" {
		t.Fatalf("ests %+v", ests)
	}
	if math.Abs(ests[0].Value-1750) > 1e-9 {
		t.Errorf("total sum %v, want 1750", ests[0].Value)
	}
}

func TestRunPredicate(t *testing.T) {
	ests, err := Run(twoStratumSample(), Query{
		GroupKey: groupCol,
		Value: func(row engine.Row) (float64, bool) {
			v := row[1].F
			return v, v >= 10 // excludes g2's only tuple
		},
		Agg: Sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 1 || ests[0].Key != "g1" {
		t.Fatalf("predicate should drop g2 entirely: %+v", ests)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(twoStratumSample(), Query{Agg: Sum}); err == nil {
		t.Error("nil Value accepted")
	}
	if _, err := Run(twoStratumSample(), Query{Value: valueCol, Confidence: 1.5}); err == nil {
		t.Error("confidence > 1 accepted")
	}
	if _, err := Run(twoStratumSample(), Query{Value: valueCol, Agg: Aggregate(9)}); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestRunEmptyStratumSkipped(t *testing.T) {
	st := twoStratumSample()
	st.Put(&sample.Stratum[engine.Row]{Key: "empty", Population: 1000})
	ests, err := Run(st, Query{GroupKey: groupCol, Value: valueCol, Agg: Sum})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ests {
		if e.Key == "empty" {
			t.Error("empty stratum produced an estimate")
		}
	}
}

func TestAggregateString(t *testing.T) {
	if Sum.String() != "SUM" || Count.String() != "COUNT" || Avg.String() != "AVG" {
		t.Error("aggregate names wrong")
	}
	if Aggregate(7).String() == "" {
		t.Error("unknown aggregate renders empty")
	}
}

// The hand-built expected bounds in this package's tests use the
// interval package's quantile and fallback directly.
var (
	ZScore            = interval.ZScore
	fallbackHalfWidth = interval.FallbackHalfWidth
)

func TestHoeffdingAvg(t *testing.T) {
	b := HoeffdingAvg(100, 0, 10, 0.90)
	if b <= 0 || math.IsInf(b, 1) {
		t.Fatalf("bound %v", b)
	}
	// Quadrupling n halves the bound.
	b4 := HoeffdingAvg(400, 0, 10, 0.90)
	if math.Abs(b4-b/2) > 1e-9 {
		t.Errorf("Hoeffding scaling: n=100 %v, n=400 %v", b, b4)
	}
	if !math.IsInf(HoeffdingAvg(0, 0, 10, 0.9), 1) {
		t.Error("n=0 should be infinite")
	}
	if !math.IsInf(HoeffdingAvg(10, 5, 5, 0.9), 1) {
		t.Error("empty range should be infinite")
	}
	if !math.IsInf(HoeffdingAvg(10, 0, 1, 1.0), 1) {
		t.Error("conf=1 should be infinite")
	}
}

func TestChebyshevAvg(t *testing.T) {
	b := ChebyshevAvg(100, 25, 0.90)
	want := math.Sqrt(25 / (100 * 0.1))
	if math.Abs(b-want) > 1e-12 {
		t.Errorf("Chebyshev %v, want %v", b, want)
	}
	if !math.IsInf(ChebyshevAvg(0, 25, 0.9), 1) {
		t.Error("n=0 should be infinite")
	}
}

// TestBoundCoverage runs a Monte-Carlo coverage check: the 90% CLT bound
// from Run should contain the true sum in roughly >= 85% of trials.
func TestBoundCoverage(t *testing.T) {
	// Population: one group of 2000 values 0..1999; sample 200 without
	// replacement each trial.
	popSum := float64(2000 * 1999 / 2)
	covered, trials := 0, 300
	rngSeed := int64(1)
	for trial := 0; trial < trials; trial++ {
		rngSeed++
		st := sample.NewStratified[engine.Row]()
		items := make([]engine.Row, 0, 200)
		perm := randPerm(2000, rngSeed)
		for _, v := range perm[:200] {
			items = append(items, engine.Row{engine.NewString("g"), engine.NewFloat(float64(v))})
		}
		st.Put(&sample.Stratum[engine.Row]{Key: "g", Population: 2000, Items: items})
		ests, err := Run(st, Query{Value: valueCol, Agg: Sum})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ests[0].Value-popSum) <= ests[0].Bound {
			covered++
		}
	}
	if rate := float64(covered) / float64(trials); rate < 0.85 {
		t.Errorf("90%% bound covered only %.0f%% of trials", rate*100)
	}
}

// randPerm is a tiny deterministic permutation helper (xorshift-based
// Fisher-Yates) so the coverage test does not fight the global RNG.
func randPerm(n int, seed int64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	s := uint64(seed)*2685821657736338717 + 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
