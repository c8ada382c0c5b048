// Package estimate turns stratified biased samples into approximate
// query answers with probabilistic error bounds, using the standard
// stratified-expansion estimators of Section 5.1 (after [Coc77]) and the
// Hoeffding/Chebyshev bound machinery Aqua reports answers with
// (Section 2).
//
// This is the direct, in-process estimation path; the SQL path through
// the Section 5 rewriters produces the same numbers by executing
// rewritten queries on the engine. Both take their confidence intervals
// from internal/interval.
//
// An estimate is PartialsCtx followed by Finalize — the same two halves
// a scatter-gather coordinator runs on opposite sides of a
// MergePartials, so a single-warehouse estimate and a sharded one over
// the same strata are numerically identical.
package estimate

import (
	"fmt"
	"math"
)

// Aggregate selects the aggregate operator to estimate.
type Aggregate int

// Supported aggregates.
const (
	Sum Aggregate = iota
	Count
	Avg
)

// String names the aggregate.
func (a Aggregate) String() string {
	switch a {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("Aggregate(%d)", int(a))
	}
}

// GroupEstimate is one output group's approximate answer.
type GroupEstimate struct {
	Key     string  // output group key
	Value   float64 // the estimate
	Bound   float64 // half-width of the CLT confidence interval
	SampleN int     // sampled tuples that contributed
}

// HoeffdingAvg returns the Hoeffding half-width for an estimated mean of
// n uniform samples of a quantity bounded in [lo, hi], at the given
// confidence: (hi−lo)·sqrt(ln(2/δ)/(2n)).
func HoeffdingAvg(n int, lo, hi, conf float64) float64 {
	if n <= 0 || hi <= lo {
		return math.Inf(1)
	}
	delta := 1 - conf
	if delta <= 0 {
		return math.Inf(1)
	}
	return (hi - lo) * math.Sqrt(math.Log(2/delta)/(2*float64(n)))
}

// ChebyshevAvg returns the Chebyshev half-width for an estimated mean
// with per-sample variance s2 over n samples: sqrt(s2/(n·δ)).
func ChebyshevAvg(n int, s2, conf float64) float64 {
	if n <= 0 || s2 < 0 {
		return math.Inf(1)
	}
	delta := 1 - conf
	if delta <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(s2 / (float64(n) * delta))
}
