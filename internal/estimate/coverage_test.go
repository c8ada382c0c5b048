package estimate

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// TestAvgBoundCoverageRatioEstimator is the empirical check behind the
// AVG bound fix. The group is fed by two skewed strata: an expensive
// stratum (values ≈ 1000) that is heavily undersampled (sf = 1000) and
// where only ~30% of rows pass the predicate, plus a cheap stratum
// (values ≈ 10) that is fully enumerated (sf = 1). The estimated
// denominator — the scaled passing count — then swings with how many
// sampled expensive rows happen to pass, dragging the group ratio up
// and down, while the within-stratum variances stay tiny. The pre-fix
// bound divided only the numerator's SRSWOR variance by the scaled
// count, so it collapses toward zero here; the ratio-estimator
// (delta-method) variance keeps the denominator variance and the
// numerator-denominator covariance, whose residual form (v − R)²
// measures each stratum's distance from the group ratio. The new bound
// must cover the true AVG at ≥ the nominal 90% rate; the old formula
// must demonstrably under-cover.
func TestAvgBoundCoverageRatioEstimator(t *testing.T) {
	const (
		expPop  = 50_000 // expensive-stratum population
		expDraw = 50     // sampled rows → sf = 1000
		enumN   = 5_000  // cheap stratum, fully enumerated
		trials  = 400
		conf    = 0.90
	)
	// Expensive rows (tag 0) pass when id%10 < 3; cheap rows (tag 1)
	// always pass. Row layout: [measure], NULL where the row fails.
	value := func(tag, i int) float64 {
		if tag == 0 {
			return 1000 + float64(i%5)
		}
		return 10 + float64(i%3)
	}
	passes := func(tag, i int) bool { return tag != 0 || i%10 < 3 }
	row := func(tag, i int) engine.Row {
		if !passes(tag, i) {
			return engine.Row{engine.Null}
		}
		return engine.Row{engine.NewFloat(value(tag, i))}
	}

	var trueSum, trueCnt float64
	for i := 0; i < expPop; i++ {
		if passes(0, i) {
			trueSum += value(0, i)
			trueCnt++
		}
	}
	enumItems := make([]engine.Row, enumN)
	for i := range enumItems {
		trueSum += value(1, i)
		trueCnt++
		enumItems[i] = row(1, i)
	}
	trueAvg := trueSum / trueCnt

	z := ZScore(conf)
	rng := rand.New(rand.NewSource(20260808))
	coveredNew, coveredOld := 0, 0
	for trial := 0; trial < trials; trial++ {
		idx := sample.SampleWithoutReplacement(expPop, expDraw, rng)
		items := make([]engine.Row, len(idx))
		for j, i := range idx {
			items[j] = row(0, i)
		}
		st := sample.NewStratified[engine.Row]()
		st.Put(&sample.Stratum[engine.Row]{Key: "exp", Population: expPop, Items: items})
		st.Put(&sample.Stratum[engine.Row]{Key: "enum", Population: enumN, Items: enumItems})

		parts, err := PartialsCtx(context.Background(), strataOf(st, nil), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ests, err := Finalize(parts, Avg, conf)
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != 1 {
			t.Fatalf("trial %d: %d groups", trial, len(ests))
		}
		est := ests[0]
		if math.Abs(est.Value-trueAvg) <= est.Bound {
			coveredNew++
		}
		// The pre-fix bound, reconstructed from the same partials:
		// z·sqrt(SumVar)/ScaledCount — numerator variance only.
		p := parts[0]
		oldBound := z * math.Sqrt(p.SumVar) / p.ScaledCount
		if math.Abs(est.Value-trueAvg) <= oldBound {
			coveredOld++
		}
	}
	newRate := float64(coveredNew) / trials
	oldRate := float64(coveredOld) / trials
	t.Logf("AVG coverage at %.0f%% nominal: ratio-estimator %.3f, pre-fix %.3f", conf*100, newRate, oldRate)
	if newRate < 0.88 {
		t.Errorf("ratio-estimator AVG bound covers %.3f < 0.88 (nominal %.2f)", newRate, conf)
	}
	if oldRate > 0.75 {
		t.Errorf("pre-fix AVG bound covers %.3f — expected clear under-coverage (the bug this guards)", oldRate)
	}
}

// TestAvgZeroStratumBoundCoverage is the empirical check behind the AVG
// zero-stratum fix, exercising the predicate-empty-shard layout that
// distributed scatter-gather produces: stratum A (one shard) is fully
// enumerated with values spanning [0, 100]; stratum B (another shard) is
// a large population sampled at only k = 5 rows, where just 10% of rows
// pass the predicate — with high values, so B's passers drag the true
// group AVG upward. In ~59% of trials the whole B sample misses the
// passers and the group's partial records B only as a zero-contribution
// stratum. The pre-fix Avg branch added no widening for that record —
// and with A enumerated (sf = 1) every variance term is exactly zero, so
// the reported half-width was 0 around an estimate that is provably
// biased low. The fixed bound widens by the Hoeffding fallback scaled by
// ZeroScaled/ScaledCount and must restore nominal-ish coverage.
func TestAvgZeroStratumBoundCoverage(t *testing.T) {
	const (
		enumN  = 2000   // stratum A: fully enumerated, always passes
		bPop   = 20_000 // stratum B population
		bDraw  = 5      // sampled rows → sf = 4000
		trials = 400
		conf   = 0.90
	)
	// Stratum B: rows with id%10 == 0 pass, values in [90, 100] — inside
	// A's observed range, as the Hoeffding fallback requires. Row
	// layout: [measure], NULL where the row fails.
	bPasses := func(i int) bool { return i%10 == 0 }
	bVal := func(i int) float64 { return 90 + float64(i%11) }

	var trueSum, trueCnt float64
	enumItems := make([]engine.Row, enumN)
	for i := range enumItems {
		v := float64(i % 101) // spans [0, 100]
		trueSum += v
		trueCnt++
		enumItems[i] = engine.Row{engine.NewFloat(v)}
	}
	for i := 0; i < bPop; i++ {
		if bPasses(i) {
			trueSum += bVal(i)
			trueCnt++
		}
	}
	trueAvg := trueSum / trueCnt

	z := ZScore(conf)
	rng := rand.New(rand.NewSource(99))
	coveredNew, coveredOld, zeroTrials := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		idx := sample.SampleWithoutReplacement(bPop, bDraw, rng)
		items := make([]engine.Row, len(idx))
		for j, i := range idx {
			items[j] = engine.Row{engine.Null}
			if bPasses(i) {
				items[j] = engine.Row{engine.NewFloat(bVal(i))}
			}
		}
		st := sample.NewStratified[engine.Row]()
		st.Put(&sample.Stratum[engine.Row]{Key: "a", Population: enumN, Items: enumItems})
		st.Put(&sample.Stratum[engine.Row]{Key: "b", Population: bPop, Items: items})

		parts, err := PartialsCtx(context.Background(), strataOf(st, nil), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ests, err := Finalize(parts, Avg, conf)
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != 1 {
			t.Fatalf("trial %d: %d groups", trial, len(ests))
		}
		est := ests[0]
		if math.Abs(est.Value-trueAvg) <= est.Bound {
			coveredNew++
		}
		// The pre-fix bound, reconstructed from the same partials: ratio
		// variance + sparse term, no zero-stratum widening.
		p := parts[0]
		if p.ZeroScaled > 0 {
			zeroTrials++
		}
		r := p.ScaledSum / p.ScaledCount
		varR := p.HTSumVar - 2*r*p.HTSumCountCov + r*r*p.CountVar
		if varR < 0 {
			varR = 0
		}
		oldBound := z * math.Sqrt(varR) / p.ScaledCount
		if p.SparseN > 0 {
			oldBound += fallbackHalfWidth(p.SparseN, p.Lo, p.Hi, conf) * (p.SparseCount / p.ScaledCount)
		}
		if math.Abs(est.Value-trueAvg) <= oldBound {
			coveredOld++
		}
	}
	newRate := float64(coveredNew) / trials
	oldRate := float64(coveredOld) / trials
	t.Logf("AVG zero-stratum coverage at %.0f%% nominal: fixed %.3f, pre-fix %.3f (%d/%d predicate-empty trials)",
		conf*100, newRate, oldRate, zeroTrials, trials)
	if zeroTrials < trials/3 {
		t.Fatalf("layout produced only %d/%d predicate-empty trials — test has lost its teeth", zeroTrials, trials)
	}
	if newRate < 0.88 {
		t.Errorf("zero-stratum AVG bound covers %.3f < 0.88 (nominal %.2f)", newRate, conf)
	}
	if oldRate > 0.70 {
		t.Errorf("pre-fix AVG bound covers %.3f — expected clear under-coverage (the bug this guards)", oldRate)
	}
}

// TestSparseStratumBoundCoverage is the empirical check behind the
// sparse-stratum fix. A group is fed by a fully enumerated stratum
// (sf = 1, exact, many rows) plus one sparse stratum: a single sampled
// row standing in for a large population. The Hoeffding fallback for
// the sparse stratum must be sized by the sparse strata's own row count
// (1), not the group's total sampled rows — with the group total, the
// 1/sqrt(n) factor shrinks by the enumerated stratum's thousands of
// rows and the bound cannot absorb the sparse row's sampling error.
func TestSparseStratumBoundCoverage(t *testing.T) {
	const (
		enumN     = 4000 // fully enumerated rows, values span [0, 100]
		sparsePop = 10_000
		trials    = 400
		conf      = 0.90
	)
	// Sparse-stratum population: values 40..60, mean 50.
	sparseVal := func(i int) float64 { return 40 + float64(i%21) }
	var sparseSum float64
	for i := 0; i < sparsePop; i++ {
		sparseSum += sparseVal(i)
	}
	var enumSum float64
	enumItems := make([]engine.Row, enumN)
	for i := range enumItems {
		v := float64(i % 101) // spans [0, 100] → group range Hi−Lo = 100
		enumSum += v
		enumItems[i] = engine.Row{engine.NewFloat(v)}
	}
	trueSum := enumSum + sparseSum

	z := ZScore(conf)
	rng := rand.New(rand.NewSource(42))
	coveredNew, coveredOld := 0, 0
	for trial := 0; trial < trials; trial++ {
		st := sample.NewStratified[engine.Row]()
		st.Put(&sample.Stratum[engine.Row]{Key: "a", Population: enumN, Items: enumItems})
		st.Put(&sample.Stratum[engine.Row]{Key: "b", Population: sparsePop,
			Items: []engine.Row{{engine.NewFloat(sparseVal(rng.Intn(sparsePop)))}}})

		parts, err := PartialsCtx(context.Background(), strataOf(st, nil), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ests, err := Finalize(parts, Sum, conf)
		if err != nil {
			t.Fatal(err)
		}
		est := ests[0]
		if math.Abs(est.Value-trueSum) <= est.Bound {
			coveredNew++
		}
		// Pre-fix bound: the fallback's sqrt(1/n) used the group's total
		// sampled rows (enumN + 1) instead of the sparse strata's own.
		p := parts[0]
		oldBound := z*math.Sqrt(p.SumVar) + fallbackHalfWidth(p.N, p.Lo, p.Hi, conf)*p.SparseCount
		if math.Abs(est.Value-trueSum) <= oldBound {
			coveredOld++
		}
	}
	newRate := float64(coveredNew) / trials
	oldRate := float64(coveredOld) / trials
	t.Logf("sparse SUM coverage at %.0f%% nominal: per-stratum-sized %.3f, pre-fix %.3f", conf*100, newRate, oldRate)
	if newRate < 0.90 {
		t.Errorf("sparse fallback covers %.3f < 0.90", newRate)
	}
	if oldRate > 0.60 {
		t.Errorf("pre-fix group-sized fallback covers %.3f — expected clear under-coverage", oldRate)
	}
}
