// Package interval is the one definition of the confidence intervals
// this system prints: the per-stratum accumulator, the fold of strata
// into an output group's moments, and the SUM, COUNT and AVG
// half-widths. Both answering paths finish here — estimate.Finalize
// (direct, sharded, distributed and hybrid estimates) and the SQL
// engine's sum_error / avg_error / count_error pseudo-aggregates (Aqua's
// error columns, Section 2) — so the two cannot disagree on a bound.
//
// The estimators are the stratified expansion estimators of Section 5.1
// (after [Coc77]); the fallbacks are the distribution-free Hoeffding
// bounds Aqua reports when a CLT term is undefined.
//
// The package is a leaf: estimate imports engine, and engine needs the
// interval too.
package interval

import "math"

// DefaultConfidence is the two-sided confidence level of a bound when
// the caller asks for none: the 90 % the paper's Aqua prototype prints
// (Section 2, footnote 6).
const DefaultConfidence = 0.90

// Stratum accumulates one stratum's passing values: its row count,
// Welford mean and M2, the expansion sums, the Horvitz-Thompson terms
// and the observed range. A stratum is a finest group of the synopsis,
// so every value shares the one scale factor it was created with.
type Stratum struct {
	n                         int64
	mean, m2                  float64
	sum, count                float64
	countVar, htSumVar, htCov float64
	lo, hi                    float64
	sf                        float64 // scale factor, ≥ 1
	w                         float64 // HT weight (1−π)/π² = sf·(sf−1)
}

// NewStratum returns an empty stratum drawn at scale factor sf (≥ 1).
func NewStratum(sf float64) Stratum {
	return Stratum{lo: math.Inf(1), hi: math.Inf(-1), sf: sf, w: sf * (sf - 1)}
}

// N returns the number of values added.
func (s *Stratum) N() int { return int(s.n) }

// Add folds one passing value into the stratum. Callers feed values in
// row order; the float operation sequence is part of the contract,
// because single, sharded and distributed estimates must agree bit for
// bit. Add is small enough to inline into the scan loops (the
// per-stratum constants sf and w are why it takes no scale factor).
func (s *Stratum) Add(v float64) {
	s.n++
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
	s.sum += v * s.sf
	s.count += s.sf
	s.countVar += s.w
	s.htSumVar += s.w * v * v
	s.htCov += s.w * v
	if v < s.lo {
		s.lo = v
	}
	if v > s.hi {
		s.hi = v
	}
}

// Moments is the mergeable per-group state behind every interval. Every
// field is either additive (sums, variances, counts) or combines by
// min/max (Lo/Hi), so moments folded from disjoint sets of strata —
// per-shard synopses, or any other partition — merge into exactly the
// state a single fold over the union would have produced: sums of sums,
// sums of variances. The interval is taken once, after the merge, by
// Sum, Count or Avg.
//
// Moments are confidence- and aggregate-independent: one fold serves
// SUM, COUNT and AVG at any confidence level.
type Moments struct {
	// N counts sampled rows that passed the predicate.
	N int
	// ScaledSum is Σ sf·v over passing rows (the expansion SUM estimate).
	ScaledSum float64
	// ScaledCount is Σ sf over passing rows (the expansion COUNT
	// estimate).
	ScaledCount float64
	// SumVar accumulates the per-stratum SRSWOR variance contributions
	// sf²·n·(1−1/sf)·s² used for the SUM bound.
	SumVar float64
	// CountVar is the Horvitz-Thompson count variance Σ sf·(sf−1),
	// defined even for single-row strata.
	CountVar float64
	// HTSumVar is Σ sf·(sf−1)·v², the HT variance of the scaled sum
	// under per-row inclusion probability 1/sf ((1−π)/π² = sf·(sf−1)).
	HTSumVar float64
	// HTSumCountCov is Σ sf·(sf−1)·v, the HT covariance between the
	// scaled sum and the scaled count (the same rows drive both), needed
	// by the ratio-estimator AVG bound.
	HTSumCountCov float64
	// Lo and Hi are the observed passing-value range, the input to the
	// distribution-free Hoeffding fallbacks. Empty moments hold
	// (+Inf, −Inf) so min/max merging is the identity.
	Lo, Hi float64
	// SparseN counts rows in sparse strata: strata contributing a single
	// passing row at sf > 1, whose sample variance is undefined. The
	// Hoeffding fallback is sized from this count — not from the group's
	// total N, which let one sparse stratum hide behind a populous
	// sibling with a vanishing half-width.
	SparseN int
	// SparseCount is Σ sf over sparse-strata rows: the slice of the
	// group's scaled count the fallback must cover.
	SparseCount float64
	// ZeroN counts sampled rows in zero-contribution strata: strata
	// whose rows all failed the predicate. Without this record the
	// stratum would simply vanish, which a scatter-gather merge misreads
	// as "no information" — a group present on shard A and predicate-
	// empty on shard B must still merge to a defined bound.
	ZeroN int
	// ZeroScaled is the total population of zero-contribution strata at
	// sf > 1 (a fully enumerated sf == 1 stratum with no passing rows
	// contributes exactly zero, with certainty).
	ZeroScaled float64
	// ExactSum and ExactCount carry the hybrid estimator's exact portion:
	// the group's SUM and non-null COUNT over base rows answered from a
	// datacube measure prefix rather than the sample. Exact mass is a
	// known constant, so it shifts the point estimate without adding
	// variance — a group answered entirely exactly finalizes with a
	// zero half-width. Both are additive across shards like every other
	// field; a warehouse that answered from its cube contributes only
	// exact mass, one that scanned its sample contributes only sampled
	// mass, and the merge composes covered + residual portions.
	ExactSum   float64
	ExactCount float64
}

// NewMoments returns zero-information moments.
func NewMoments() Moments {
	return Moments{Lo: math.Inf(1), Hi: math.Inf(-1)}
}

// Merge folds other into m.
func (m *Moments) Merge(other *Moments) {
	m.N += other.N
	m.ScaledSum += other.ScaledSum
	m.ScaledCount += other.ScaledCount
	m.SumVar += other.SumVar
	m.CountVar += other.CountVar
	m.HTSumVar += other.HTSumVar
	m.HTSumCountCov += other.HTSumCountCov
	if other.Lo < m.Lo {
		m.Lo = other.Lo
	}
	if other.Hi > m.Hi {
		m.Hi = other.Hi
	}
	m.SparseN += other.SparseN
	m.SparseCount += other.SparseCount
	m.ZeroN += other.ZeroN
	m.ZeroScaled += other.ZeroScaled
	m.ExactSum += other.ExactSum
	m.ExactCount += other.ExactCount
}

// AddStratum folds one stratum with at least one passing value into m.
// A stratum of n ≥ 2 rows adds its SRSWOR variance term; a single row
// at sf > 1 has no defined sample variance (the s² term would divide by
// n−1 = 0), so it is recorded as sparse and the fallback half-width is
// sized from the sparse strata alone. A single row at sf == 1 really is
// the whole stratum, so a zero contribution is correct there.
func (m *Moments) AddStratum(s *Stratum) {
	m.N += int(s.n)
	m.ScaledSum += s.sum
	m.ScaledCount += s.count
	m.CountVar += s.countVar
	m.HTSumVar += s.htSumVar
	m.HTSumCountCov += s.htCov
	if s.lo < m.Lo {
		m.Lo = s.lo
	}
	if s.hi > m.Hi {
		m.Hi = s.hi
	}
	if s.n >= 2 {
		s2 := s.m2 / float64(s.n-1)
		m.SumVar += s.sf * s.sf * float64(s.n) * (1 - 1/s.sf) * s2
	} else if s.sf > 1 {
		m.SparseN++
		m.SparseCount += s.count
	}
}

// Sum returns the SUM estimate and its half-width at confidence conf:
// z·sqrt(SumVar), plus Hoeffding fallbacks for the sparse strata (sized
// by SparseN, weighted by SparseCount) and the zero-contribution strata
// (sized by ZeroN, weighted by ZeroScaled). Exact mass adds to the
// value and nothing to the half-width.
func (m *Moments) Sum(conf float64) (value, bound float64) {
	bound = ZScore(conf) * math.Sqrt(m.SumVar)
	if m.SparseN > 0 {
		bound += FallbackHalfWidth(m.SparseN, m.Lo, m.Hi, conf) * m.SparseCount
	}
	if m.ZeroScaled > 0 {
		bound += FallbackHalfWidth(m.ZeroN, m.Lo, m.Hi, conf) * m.ZeroScaled
	}
	return m.ExactSum + m.ScaledSum, finite(bound)
}

// Count returns the COUNT estimate and its half-width at confidence
// conf: z·sqrt(CountVar) plus the zero-stratum fallback over the
// indicator range [0,1]. The Horvitz-Thompson count variance
// sf·(sf−1) per row is defined even for single-row strata, so no sparse
// fallback is needed.
func (m *Moments) Count(conf float64) (value, bound float64) {
	bound = ZScore(conf) * math.Sqrt(m.CountVar)
	if m.ZeroScaled > 0 {
		bound += FallbackHalfWidth(m.ZeroN, 0, 1, conf) * m.ZeroScaled
	}
	return m.ExactCount + m.ScaledCount, finite(bound)
}

// Avg returns the AVG estimate and its half-width at confidence conf,
// or ok = false when the group has no count to divide by. The bound is
// the ratio-estimator (delta-method) variance
// (HTSumVar − 2R·HTSumCountCov + R²·CountVar)/total², which accounts for
// the variance of the estimated denominator and its covariance with the
// numerator — algebraically Σ sf(sf−1)(v−R)², guaranteed non-negative —
// plus the sparse fallback weighted by the sparse strata's share of the
// count, plus the zero-stratum fallback weighted by the zero strata's
// unsampled mass relative to the count: a group that is predicate-empty
// on one shard must report a wider AVG than one that is not.
//
// The hybrid denominator total is the exact non-null count plus the
// estimated one, which strictly shrinks both the delta-method term and
// the fallback weights: hybrid bounds are never wider than pure-sample
// bounds on the same moments, and a group answered entirely exactly
// (N == 0, ExactCount > 0) has half-width exactly 0.
func (m *Moments) Avg(conf float64) (value, bound float64, ok bool) {
	total := m.ScaledCount + m.ExactCount
	if total == 0 {
		return 0, 0, false
	}
	r := (m.ExactSum + m.ScaledSum) / total
	// The delta-method variance of (E + Ŝ)/(C_e + Ĉ) keeps only the
	// random terms (Ŝ, Ĉ): Var(Ŝ) − 2R·Cov(Ŝ,Ĉ) + R²·Var(Ĉ), all divided
	// by total². The quadratic in R is Σ sf(sf−1)(v−R)² for any R, so it
	// stays non-negative with the hybrid ratio too.
	varR := m.HTSumVar - 2*r*m.HTSumCountCov + r*r*m.CountVar
	if varR < 0 {
		varR = 0 // floating-point residue; the form is a sum of squares
	}
	bound = ZScore(conf) * math.Sqrt(varR) / total
	if m.SparseN > 0 {
		bound += FallbackHalfWidth(m.SparseN, m.Lo, m.Hi, conf) * (m.SparseCount / total)
	}
	if m.ZeroScaled > 0 {
		// Zero-contribution strata hold ZeroScaled population rows whose
		// passing values — if any exist — were never observed. Shifting
		// the ratio by that unseen mass moves the AVG by at most
		// halfWidth·(ZeroScaled/total).
		bound += FallbackHalfWidth(m.ZeroN, m.Lo, m.Hi, conf) * (m.ZeroScaled / total)
	}
	return r, finite(bound), true
}

// finite clamps a non-finite half-width to "no information", so bounds
// always serialize as valid JSON.
func finite(bound float64) float64 {
	if math.IsNaN(bound) || math.IsInf(bound, 0) {
		return math.MaxFloat64
	}
	return bound
}

// FallbackHalfWidth is the defined half-width substituted for groups
// whose CLT variance term is unavailable: a Hoeffding bound for the mean
// of n values over the observed range [lo, hi]. A group fed by a single
// row has a degenerate (zero-width) range, so the range is floored at
// max(|hi|, 1) — "the value could plausibly be off by its own
// magnitude" — which keeps the bound positive and finite instead of the
// 0 (false certainty) or +Inf the raw Hoeffding formula produces.
func FallbackHalfWidth(n int, lo, hi, conf float64) float64 {
	if n <= 0 {
		n = 1
	}
	width := hi - lo
	if !(width > 0) || math.IsInf(width, 0) {
		width = math.Abs(hi)
		if !(width >= 1) || math.IsInf(width, 0) {
			width = 1
		}
	}
	delta := 1 - conf
	return width * math.Sqrt(math.Log(2/delta)/(2*float64(n)))
}

// ZScore returns the two-sided normal critical value for the given
// confidence level (e.g. 0.90 → 1.645, 0.95 → 1.960), computed with
// Acklam's inverse-normal-CDF approximation (|relative error| < 1.15e-9).
func ZScore(conf float64) float64 {
	p := 0.5 + conf/2 // upper quantile
	return normInv(p)
}

// normInv approximates the standard normal quantile function.
func normInv(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	// Coefficients for Acklam's rational approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
