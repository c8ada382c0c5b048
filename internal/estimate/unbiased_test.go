package estimate

import (
	"math"
	"math/rand"
	"testing"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// TestStratifiedEstimatorUnbiased verifies the Section 5.1 claim that
// the expansion estimator over a union of different-rate uniform
// samples is unbiased: averaging SUM estimates over many independent
// stratified samples converges to the true population sum.
func TestStratifiedEstimatorUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(123))

	// Two strata with very different sizes, value distributions, and
	// sampling rates — the mixed-rate situation of query Q2 in the
	// paper's Section 5.1 example.
	popA := make([]float64, 5000)
	popB := make([]float64, 300)
	var trueSum float64
	for i := range popA {
		popA[i] = rng.Float64() * 10
		trueSum += popA[i]
	}
	for i := range popB {
		popB[i] = 100 + rng.Float64()*500
		trueSum += popB[i]
	}

	const trials = 400
	var sumOfEstimates float64
	var sumSqDev float64
	for trial := 0; trial < trials; trial++ {
		st := sample.NewStratified[engine.Row]()
		// 1% of A, 10% of B.
		st.Put(stratumFrom("A", popA, 50, rng))
		st.Put(stratumFrom("B", popB, 30, rng))
		ests, err := run(st, nil, valueCol, Sum, 0)
		if err != nil {
			t.Fatal(err)
		}
		est := ests[0].Value
		sumOfEstimates += est
		d := est - trueSum
		sumSqDev += d * d
	}
	meanEst := sumOfEstimates / trials
	empiricalSD := math.Sqrt(sumSqDev / trials)
	// The mean of the estimates should be within ~4 standard errors of
	// the truth.
	if math.Abs(meanEst-trueSum) > 4*empiricalSD/math.Sqrt(trials) {
		t.Errorf("estimator biased: mean estimate %.1f vs true %.1f (empirical sd %.1f)",
			meanEst, trueSum, empiricalSD)
	}
}

// stratumFrom draws a uniform without-replacement sample of size n from
// the population and wraps it as a stratum.
func stratumFrom(key string, pop []float64, n int, rng *rand.Rand) *sample.Stratum[engine.Row] {
	idx := sample.SampleWithoutReplacement(len(pop), n, rng)
	items := make([]engine.Row, 0, n)
	for _, i := range idx {
		items = append(items, engine.Row{engine.NewString(key), engine.NewFloat(pop[i])})
	}
	return &sample.Stratum[engine.Row]{Key: key, Population: int64(len(pop)), Items: items}
}

// TestSubsamplingVsStratifiedBound reproduces the Section 5.1 note that
// estimating from all strata at their own rates beats subsampling every
// stratum down to the lowest common rate: the mixed-rate estimator's
// empirical error must be smaller.
func TestSubsamplingVsStratifiedBound(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	pop := make([]float64, 4000)
	var trueSum float64
	for i := range pop {
		pop[i] = rng.Float64() * 100
		trueSum += pop[i]
	}

	const trials = 300
	var mixedErr, subErr float64
	for trial := 0; trial < trials; trial++ {
		// Mixed: one stratum sampled at 5%.
		stFull := sample.NewStratified[engine.Row]()
		stFull.Put(stratumFrom("g", pop, 200, rng))
		full, err := run(stFull, nil, valueCol, Sum, 0)
		if err != nil {
			t.Fatal(err)
		}
		mixedErr += math.Abs(full[0].Value - trueSum)

		// Subsampled down to 1% (what a lowest-common-rate scheme
		// would keep).
		stSub := sample.NewStratified[engine.Row]()
		stSub.Put(stratumFrom("g", pop, 40, rng))
		sub, err := run(stSub, nil, valueCol, Sum, 0)
		if err != nil {
			t.Fatal(err)
		}
		subErr += math.Abs(sub[0].Value - trueSum)
	}
	if mixedErr >= subErr {
		t.Errorf("5%% sample mean |err| %.1f should beat 1%% sample %.1f",
			mixedErr/trials, subErr/trials)
	}
}
