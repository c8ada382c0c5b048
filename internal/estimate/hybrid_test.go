package estimate

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// exactPartial builds the partial a datacube-covered warehouse exports:
// pure exact mass, empty observed range, no sampled rows.
func exactPartial(key string, sum, count float64) GroupPartial {
	p := emptyPartial(key)
	p.ExactSum = sum
	p.ExactCount = count
	return p
}

// TestHybridBoundCoverage is the empirical check behind the hybrid
// exact+sample estimator: a group whose mass is split into an exactly
// answered portion (coverage fraction f of the population, zero
// variance) and a sampled residual must report bounds that cover the
// true answer at no less than the nominal rate — the exact mass shifts
// the point estimate as a constant, and the interval needs to absorb
// only the residual's sampling error. Runs 400 trials per
// (aggregate, confidence, coverage) cell at 90% and 95% nominal with
// coverage fractions 1/4, 1/2 and 3/4, and additionally pins two
// boundary contracts on every trial:
//
//   - hybrid half-widths are never wider than the same partials
//     finalized with the exact mass stripped (the pure-sample bound on
//     the residual), and for AVG they are strictly narrower, because
//     the exact count grows the ratio denominator;
//   - a fully covered group (f = 1, no sampled rows) finalizes with
//     half-width exactly 0 and the exact truth as its value.
func TestHybridBoundCoverage(t *testing.T) {
	const (
		pop    = 40_000 // group population
		draw   = 60     // sampled rows from the residual
		trials = 400
	)
	value := func(i int) float64 { return 100 + float64(i%37) + 50*math.Sin(float64(i)) }
	var trueSum float64
	for i := 0; i < pop; i++ {
		trueSum += value(i)
	}
	trueAvg := trueSum / pop

	rng := rand.New(rand.NewSource(20260808))
	for _, conf := range []float64{0.90, 0.95} {
		// Allow ~3 standard errors of simulation noise below nominal.
		floor := conf - 3*math.Sqrt(conf*(1-conf)/trials)
		for _, f := range []float64{0.25, 0.50, 0.75} {
			cut := int(f * pop) // rows [0, cut) answered exactly
			var exactSum float64
			for i := 0; i < cut; i++ {
				exactSum += value(i)
			}
			coveredSum, coveredAvg := 0, 0
			for trial := 0; trial < trials; trial++ {
				resPop := pop - cut
				idx := sample.SampleWithoutReplacement(resPop, draw, rng)
				items := make([]engine.Row, len(idx))
				for j, i := range idx {
					items[j] = engine.Row{engine.NewFloat(value(cut + i))}
				}
				st := sample.NewStratified[engine.Row]()
				st.Put(&sample.Stratum[engine.Row]{Key: "res", Population: int64(resPop), Items: items})
				sampled, err := PartialsCtx(context.Background(), strataOf(st, nil), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				merged := MergePartials(sampled, []GroupPartial{exactPartial("", exactSum, float64(cut))})

				// Pure-sample finalize of the same residual partials: the
				// hybrid bound must never exceed it.
				stripped := make([]GroupPartial, len(merged))
				copy(stripped, merged)
				stripped[0].ExactSum, stripped[0].ExactCount = 0, 0
				for _, agg := range []Aggregate{Sum, Count, Avg} {
					he, err := Finalize(merged, agg, conf)
					if err != nil {
						t.Fatal(err)
					}
					se, err := Finalize(stripped, agg, conf)
					if err != nil {
						t.Fatal(err)
					}
					if len(he) != 1 || len(se) != 1 {
						t.Fatalf("conf %v f %v: %d/%d groups", conf, f, len(he), len(se))
					}
					if he[0].Bound > se[0].Bound*(1+1e-12) {
						t.Fatalf("conf %v f %v %v: hybrid bound %v wider than pure-sample %v",
							conf, f, agg, he[0].Bound, se[0].Bound)
					}
					if agg == Avg && !(he[0].Bound < se[0].Bound) {
						t.Fatalf("conf %v f %v: hybrid AVG bound %v not strictly narrower than %v",
							conf, f, he[0].Bound, se[0].Bound)
					}
					switch agg {
					case Sum:
						if math.Abs(he[0].Value-trueSum) <= he[0].Bound {
							coveredSum++
						}
					case Avg:
						if math.Abs(he[0].Value-trueAvg) <= he[0].Bound {
							coveredAvg++
						}
					}
				}
			}
			sumRate := float64(coveredSum) / trials
			avgRate := float64(coveredAvg) / trials
			t.Logf("conf %.2f coverage %.2f: SUM %.3f AVG %.3f (floor %.3f)", conf, f, sumRate, avgRate, floor)
			if sumRate < floor {
				t.Errorf("conf %.2f coverage %.2f: hybrid SUM bound covers %.3f < %.3f", conf, f, sumRate, floor)
			}
			if avgRate < floor {
				t.Errorf("conf %.2f coverage %.2f: hybrid AVG bound covers %.3f < %.3f", conf, f, avgRate, floor)
			}
		}
	}

	// Full coverage: the group is a constant, not an estimate.
	full := []GroupPartial{exactPartial("", trueSum, pop)}
	for agg, want := range map[Aggregate]float64{Sum: trueSum, Count: pop, Avg: trueAvg} {
		ests, err := Finalize(full, agg, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != 1 {
			t.Fatalf("full coverage %v: %d groups", agg, len(ests))
		}
		if ests[0].Bound != 0 {
			t.Errorf("full coverage %v: half-width %v, want exactly 0", agg, ests[0].Bound)
		}
		if ests[0].Value != want {
			t.Errorf("full coverage %v: value %v, want %v", agg, ests[0].Value, want)
		}
		if ests[0].SampleN != 0 {
			t.Errorf("full coverage %v: SampleN %d, want 0", agg, ests[0].SampleN)
		}
	}
}

// TestMergeHybridNoExactMassBitIdentical is the no-regression
// differential for the hybrid algebra: with zero exact mass the
// finalized estimates must be bit-identical to the pre-hybrid formulas,
// reconstructed here from the same partials — the hybrid terms have to
// vanish exactly, not merely to within rounding, so pure-sample
// deployments (and the 1e-9 sharded differentials built on them) see no
// drift at all.
func TestMergeHybridNoExactMassBitIdentical(t *testing.T) {
	// The predicate leaves some sparse and zero-contribution strata.
	st := synthSample(23, 90, func(v float64) bool { return v > 120 })
	parts, err := PartialsCtx(context.Background(), strataOf(st, byGroup), byGroup, valueCol)
	if err != nil {
		t.Fatal(err)
	}
	const conf = 0.95
	z := ZScore(conf)
	for _, agg := range []Aggregate{Sum, Count, Avg} {
		ests, err := Finalize(parts, agg, conf)
		if err != nil {
			t.Fatal(err)
		}
		byKey := make(map[string]GroupEstimate, len(ests))
		for _, e := range ests {
			byKey[e.Key] = e
		}
		checked := 0
		for i := range parts {
			p := &parts[i]
			if p.ExactSum != 0 || p.ExactCount != 0 {
				t.Fatalf("sample scan produced exact mass: %+v", p)
			}
			if p.N == 0 {
				continue
			}
			e, ok := byKey[p.Key]
			if !ok {
				t.Fatalf("%v: group %q missing from estimates", agg, p.Key)
			}
			var wantVal, wantBound float64
			switch agg {
			case Sum:
				wantVal = p.ScaledSum
				wantBound = z * math.Sqrt(p.SumVar)
				if p.SparseN > 0 {
					wantBound += fallbackHalfWidth(p.SparseN, p.Lo, p.Hi, conf) * p.SparseCount
				}
				if p.ZeroScaled > 0 {
					wantBound += fallbackHalfWidth(p.ZeroN, p.Lo, p.Hi, conf) * p.ZeroScaled
				}
			case Count:
				wantVal = p.ScaledCount
				wantBound = z * math.Sqrt(p.CountVar)
				if p.ZeroScaled > 0 {
					wantBound += fallbackHalfWidth(p.ZeroN, 0, 1, conf) * p.ZeroScaled
				}
			case Avg:
				r := p.ScaledSum / p.ScaledCount
				wantVal = r
				varR := p.HTSumVar - 2*r*p.HTSumCountCov + r*r*p.CountVar
				if varR < 0 {
					varR = 0
				}
				wantBound = z * math.Sqrt(varR) / p.ScaledCount
				if p.SparseN > 0 {
					wantBound += fallbackHalfWidth(p.SparseN, p.Lo, p.Hi, conf) * (p.SparseCount / p.ScaledCount)
				}
				if p.ZeroScaled > 0 {
					wantBound += fallbackHalfWidth(p.ZeroN, p.Lo, p.Hi, conf) * (p.ZeroScaled / p.ScaledCount)
				}
			}
			if e.Value != wantVal || e.Bound != wantBound {
				t.Errorf("%v %q: (%v ± %v) != pre-hybrid (%v ± %v)", agg, p.Key, e.Value, e.Bound, wantVal, wantBound)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%v: degenerate fixture, nothing checked", agg)
		}
	}
}

// TestMergeNearCancellingAvgVarianceClamp guards the non-negativity
// clamp on the merged delta-method AVG variance. Algebraically
// varR = Σ sf(sf−1)(v−R)² ≥ 0, but the three merged accumulators
// (HTSumVar, HTSumCountCov, CountVar) are rounded independently, so
// near-cancelling partials — large-magnitude constant values, where the
// true variance is exactly zero — can leave a tiny negative residue
// whose sqrt would be NaN. Splitting the same strata across many
// shards reorders the float additions and shifts the residue, so the
// clamp is exercised across merge shapes; a handcrafted partial with a
// guaranteed-negative quadratic pins the clamp (plus the sparse
// fallback that still applies) directly.
func TestMergeNearCancellingAvgVarianceClamp(t *testing.T) {
	// Constant value with a magnitude that makes sf(sf−1)v² rounding
	// visible; irrational-ish scale factors via prime populations.
	const v = 1.0e8 + 1.0/3.0
	mkStratum := func(key string, n int, pop int64) *sample.Stratum[engine.Row] {
		items := make([]engine.Row, n)
		for i := range items {
			items[i] = engine.Row{engine.NewString("g"), engine.NewFloat(v)}
		}
		return &sample.Stratum[engine.Row]{Key: key, Population: pop, Items: items}
	}
	full := sample.NewStratified[engine.Row]()
	primes := []int64{10007, 20011, 30011, 40009, 50021, 60013, 70001, 80021}
	for i, p := range primes {
		full.Put(mkStratum(string(rune('a'+i)), 3+i, p))
	}
	for _, k := range []int{1, 2, 4, 8} {
		parts := partitionByRouter(t, full, k)
		lists := make([][]GroupPartial, len(parts))
		for i, p := range parts {
			var err error
			if lists[i], err = PartialsCtx(context.Background(), strataOf(p, byGroup), byGroup, valueCol); err != nil {
				t.Fatal(err)
			}
		}
		ests, err := Finalize(MergePartials(lists...), Avg, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != 1 {
			t.Fatalf("k=%d: %d groups", k, len(ests))
		}
		e := ests[0]
		if math.IsNaN(e.Bound) || e.Bound < 0 {
			t.Fatalf("k=%d: half-width %v from near-cancelling partials (clamp failed)", k, e.Bound)
		}
		// Constant data: the delta-method term is zero up to rounding
		// residue in the ~1e24-magnitude accumulators, so the bound must
		// be negligible relative to the value (not necessarily zero).
		if e.Bound > 1e-6*v {
			t.Errorf("k=%d: half-width %v for constant-valued group of %v", k, e.Bound, v)
		}
		if relDiff(e.Value, v) > 1e-12 {
			t.Errorf("k=%d: AVG %v != %v", k, e.Value, v)
		}
	}

	// Handcrafted guaranteed-negative quadratic: HTSumVar = 0 with a
	// positive covariance term forces varR = −2R·HTSumCountCov < 0. Not
	// reachable from a real scan, but it proves the clamp (not luck in
	// rounding) keeps the bound finite and non-negative.
	p := emptyPartial("g")
	p.N = 2
	p.ScaledSum = 2e8
	p.ScaledCount = 2
	p.HTSumCountCov = 1
	p.Lo, p.Hi = 1e8, 1e8
	ests, err := Finalize([]GroupPartial{p}, Avg, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 1 || math.IsNaN(ests[0].Bound) || ests[0].Bound < 0 {
		t.Fatalf("handcrafted negative varR: %+v", ests)
	}
}
