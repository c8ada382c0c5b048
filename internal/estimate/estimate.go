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
package estimate

import (
	"context"
	"fmt"
	"math"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// pollEvery is how many sampled rows the estimation loop processes
// between context cancellation checks (mirrors engine.pollEvery).
const pollEvery = 1024

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

// Query describes one estimation pass over a stratified sample.
type Query struct {
	// GroupKey maps a sampled tuple to its output group. Because any
	// group under a grouping T ⊆ G is a union of finest groups, every
	// stratum maps entirely to one output group. nil means no group-by:
	// all tuples fall into the single group "".
	GroupKey func(engine.Row) string
	// Value extracts the aggregated expression from a tuple; ok=false
	// excludes the tuple (predicate failure or NULL). For Count, Value
	// acts purely as the predicate (the value itself is ignored).
	Value func(engine.Row) (v float64, ok bool)
	// ValueIndex, when non-nil, declares that Value is exactly
	// "row[*ValueIndex].AsFloat()" — a bare column read with no
	// predicate. The scan then gathers the column in batches
	// (engine.AppendColumnFloats) instead of calling Value per row,
	// which amortizes closure dispatch and cancellation polling. The
	// accumulation math and its order are identical, so estimates are
	// bit-for-bit the same either way. Value may be nil when ValueIndex
	// is set; if both are set they must agree.
	ValueIndex *int
	// Agg is the aggregate operator.
	Agg Aggregate
	// Confidence is the two-sided confidence level for Bound; 0 means
	// the Aqua default of 0.90.
	Confidence float64
}

// GroupEstimate is one output group's approximate answer.
type GroupEstimate struct {
	Key     string  // output group key
	Value   float64 // the estimate
	Bound   float64 // half-width of the CLT confidence interval
	SampleN int     // sampled tuples that contributed
}

// Run executes the estimation. Output order follows sorted stratum keys
// grouped by output key first appearance.
func Run(st *sample.Stratified[engine.Row], q Query) ([]GroupEstimate, error) {
	return RunCtx(context.Background(), st, q)
}

// RunCtx executes the estimation under a context: a deadline or
// cancellation is observed inside the per-row scan loop (checked every
// pollEvery sampled rows), so a query against a large sample stops
// promptly when its caller gives up.
//
// RunCtx is exactly PartialsCtx followed by Finalize — the same two
// halves a scatter-gather coordinator runs on opposite sides of a
// MergePartials, so a single-warehouse estimate and a sharded one over
// the same strata are numerically identical.
func RunCtx(ctx context.Context, st *sample.Stratified[engine.Row], q Query) ([]GroupEstimate, error) {
	partials, err := PartialsCtx(ctx, st, q)
	if err != nil {
		return nil, err
	}
	return Finalize(partials, q.Agg, q.Confidence)
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
