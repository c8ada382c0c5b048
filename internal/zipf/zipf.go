// Package zipf provides Zipf-distributed generators used to skew group
// sizes and aggregate-column values, mirroring the data modifications
// described in Section 7.1.1 of the congressional-samples paper.
//
// A Zipf distribution over ranks 1..n with parameter z assigns rank i a
// probability proportional to 1/i^z. z = 0 is the uniform distribution;
// z = 0.86 yields the classic 90-10 rule; z = 1.5 is heavily skewed.
package zipf

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// Distribution is a finite Zipf distribution over ranks 0..N-1 (rank 0
// being the most probable). It supports O(log n) sampling via inverse
// transform on the precomputed CDF, and exposes the exact cell
// probabilities so callers can compute deterministic expected counts.
type Distribution struct {
	probs []float64 // probs[i] = P(rank i)
	cdf   []float64 // cdf[i] = P(rank <= i)
}

// New returns a Zipf distribution over n ranks with skew parameter z.
// z must be >= 0 and n >= 1.
func New(n int, z float64) (*Distribution, error) {
	if n < 1 {
		return nil, errors.New("zipf: need at least one rank")
	}
	if z < 0 {
		return nil, errors.New("zipf: negative skew parameter")
	}
	d := &Distribution{
		probs: make([]float64, n),
		cdf:   make([]float64, n),
	}
	var norm float64
	for i := 0; i < n; i++ {
		p := 1.0 / math.Pow(float64(i+1), z)
		d.probs[i] = p
		norm += p
	}
	var acc float64
	for i := 0; i < n; i++ {
		d.probs[i] /= norm
		acc += d.probs[i]
		d.cdf[i] = acc
	}
	d.cdf[n-1] = 1.0 // guard against floating-point shortfall
	return d, nil
}

// MustNew is New but panics on invalid parameters. Intended for use with
// compile-time-constant arguments in tests and generators.
func MustNew(n int, z float64) *Distribution {
	d, err := New(n, z)
	if err != nil {
		panic(err)
	}
	return d
}

// N returns the number of ranks.
func (d *Distribution) N() int { return len(d.probs) }

// Prob returns the probability of rank i.
func (d *Distribution) Prob(i int) float64 { return d.probs[i] }

// Next draws a rank in [0, N) using rng.
func (d *Distribution) Next(rng *rand.Rand) int {
	u := rng.Float64()
	// First rank is by far the most likely under high skew; test it
	// before binary searching.
	if u < d.cdf[0] {
		return 0
	}
	return sort.SearchFloat64s(d.cdf, u)
}

// Counts deterministically apportions total items across the N ranks in
// proportion to the Zipf probabilities, using largest-remainder rounding
// so the counts sum exactly to total. Rank 0 receives the most items.
// Every rank receives at least one item when total >= N, so that all
// groups are non-empty as the paper's generator requires.
func (d *Distribution) Counts(total int) []int {
	n := len(d.probs)
	counts := make([]int, n)
	if total <= 0 {
		return counts
	}
	if total >= n {
		// Reserve one item per rank, apportion the rest.
		for i := range counts {
			counts[i] = 1
		}
		total -= n
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	assigned := 0
	for i, p := range d.probs {
		exact := p * float64(total)
		whole := int(exact)
		counts[i] += whole
		assigned += whole
		rems[i] = rem{idx: i, frac: exact - float64(whole)}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; i < total-assigned; i++ {
		counts[rems[i%n].idx]++
	}
	return counts
}
