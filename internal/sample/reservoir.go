// Package sample provides the raw sampling machinery the congressional
// allocator builds on: classic reservoir sampling (Vitter's Algorithm R
// with the skip-count optimization the paper cites from [Vit85]),
// Bernoulli per-tuple sampling, and a stratified-sample container that
// records per-stratum sampling rates for scale-factor computation.
package sample

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Reservoir maintains a uniform random sample of fixed capacity over a
// stream of items using reservoir sampling. Offer is O(1) amortized:
// after the reservoir fills, a skip counter predetermines how many
// stream items to pass over before the next replacement, exactly as the
// paper describes in Section 6 ("predetermining how many insertions to
// skip over before the next is added to the sample").
type Reservoir[T any] struct {
	capacity int
	seen     int64 // stream length observed so far
	skip     int64 // items to skip before next replacement (-1 = recompute)
	items    []T
	rng      *rand.Rand
}

// NewReservoir creates a reservoir holding at most capacity items,
// drawing randomness from rng. Capacity must be positive.
func NewReservoir[T any](capacity int, rng *rand.Rand) (*Reservoir[T], error) {
	if capacity <= 0 {
		return nil, errors.New("sample: reservoir capacity must be positive")
	}
	if rng == nil {
		return nil, errors.New("sample: nil rng")
	}
	return &Reservoir[T]{capacity: capacity, skip: -1, items: make([]T, 0, capacity), rng: rng}, nil
}

// MustReservoir is NewReservoir but panics on error.
func MustReservoir[T any](capacity int, rng *rand.Rand) *Reservoir[T] {
	r, err := NewReservoir[T](capacity, rng)
	if err != nil {
		panic(err)
	}
	return r
}

// Offer presents the next stream item to the reservoir. It returns
// (evicted, hadEviction, accepted): accepted is true when the item
// entered the sample; hadEviction is true when an existing sampled item
// was displaced to make room, in which case evicted is that item. The
// eviction information drives the Basic Congress delta-sample
// maintenance of Section 6.
func (r *Reservoir[T]) Offer(item T) (evicted T, hadEviction, accepted bool) {
	r.seen++
	if len(r.items) < r.capacity {
		// Fill phase: the capacity never grows, so free space means the
		// stream is still no longer than the capacity; admit.
		r.items = append(r.items, item)
		return evicted, false, true
	}
	if r.skip < 0 {
		r.computeSkip()
	}
	if r.skip > 0 {
		r.skip--
		return evicted, false, false
	}
	// Replace a uniformly random victim.
	victim := r.rng.Intn(r.capacity)
	evicted = r.items[victim]
	r.items[victim] = item
	r.skip = -1
	return evicted, true, true
}

// computeSkip draws the gap until the next accepted item. With t items
// seen and capacity k, item t+1 is accepted with probability k/(t+1);
// we draw successive Bernoulli trials folded into a single geometric-ish
// walk. This is Vitter's Algorithm X skip computation.
func (r *Reservoir[T]) computeSkip() {
	k := float64(r.capacity)
	// Offer increments seen before calling computeSkip, so the current
	// item is item number r.seen and must be accepted with probability
	// k/r.seen; start the walk one step back.
	t := float64(r.seen - 1)
	var skip int64
	for {
		t++
		if r.rng.Float64() < k/t {
			break
		}
		skip++
	}
	r.skip = skip
}

// Items returns the current sample contents. The returned slice aliases
// internal storage; callers must copy before mutating.
func (r *Reservoir[T]) Items() []T { return r.items }

// Len returns the number of items currently in the sample.
func (r *Reservoir[T]) Len() int { return len(r.items) }

// Cap returns the reservoir capacity.
func (r *Reservoir[T]) Cap() int { return r.capacity }

// Seen returns how many stream items have been offered.
func (r *Reservoir[T]) Seen() int64 { return r.seen }

// ErrCapacityUnderflow is returned by Shrink when the requested capacity
// is below 1. A reservoir cannot hold fewer than one item, and silently
// clamping used to mask real sizing bugs (e.g. a Senate X/m target
// underflowing to 0 when the group count m exceeds the budget X).
var ErrCapacityUnderflow = errors.New("sample: reservoir capacity below 1")

// Shrink changes the reservoir capacity to newCap, evicting uniformly
// random victims if the sample currently exceeds it. Shrinking preserves
// the uniform-sample property: the paper's Theorem 6.1 proof notes the
// property "is preserved under random eviction without insertion".
// The evicted items are returned. newCap < 1 returns
// ErrCapacityUnderflow, and newCap above the current capacity an error:
// a grown reservoir could not refill uniformly without revisiting
// discarded items. Either leaves the reservoir unchanged.
func (r *Reservoir[T]) Shrink(newCap int, rng *rand.Rand) ([]T, error) {
	if newCap < 1 {
		return nil, fmt.Errorf("%w: requested %d", ErrCapacityUnderflow, newCap)
	}
	if newCap > r.capacity {
		return nil, fmt.Errorf("sample: reservoir capacity %d cannot grow to %d", r.capacity, newCap)
	}
	if newCap != r.capacity {
		// Any pending skip count was drawn for the old capacity;
		// recompute on the next Offer.
		r.skip = -1
	}
	r.capacity = newCap
	var out []T
	for len(r.items) > newCap {
		victim := rng.Intn(len(r.items))
		out = append(out, r.items[victim])
		last := len(r.items) - 1
		r.items[victim] = r.items[last]
		r.items = r.items[:last]
	}
	return out, nil
}

// ReservoirState is the serializable state of a Reservoir for durable
// snapshots. RNG state is intentionally excluded: restoring reseeds the
// stream of randomness, which preserves the uniform-sample distribution
// (every state the reservoir can reach is distribution-equivalent under
// any RNG continuation) without persisting generator internals.
type ReservoirState[T any] struct {
	Capacity int
	Seen     int64
	Items    []T
}

// State exports the reservoir's serializable state. The items slice is
// copied; the items themselves are shared.
func (r *Reservoir[T]) State() *ReservoirState[T] {
	return &ReservoirState[T]{
		Capacity: r.capacity,
		Seen:     r.seen,
		Items:    append([]T(nil), r.items...),
	}
}

// RestoreReservoir rebuilds a reservoir from exported state, drawing
// future randomness from rng. The pending skip count is not part of the
// state; it is recomputed on the next Offer.
func RestoreReservoir[T any](st *ReservoirState[T], rng *rand.Rand) (*Reservoir[T], error) {
	if st == nil {
		return nil, errors.New("sample: nil reservoir state")
	}
	r, err := NewReservoir[T](st.Capacity, rng)
	if err != nil {
		return nil, err
	}
	if len(st.Items) > st.Capacity {
		return nil, fmt.Errorf("sample: reservoir state holds %d items over capacity %d", len(st.Items), st.Capacity)
	}
	if st.Seen < int64(len(st.Items)) {
		return nil, fmt.Errorf("sample: reservoir state saw %d items but holds %d", st.Seen, len(st.Items))
	}
	if len(st.Items) < st.Capacity && st.Seen > int64(st.Capacity) {
		// Only a grown capacity leaves free space after the stream has
		// outrun it, and capacities never grow.
		return nil, fmt.Errorf("sample: reservoir state holds %d items under capacity %d after %d seen", len(st.Items), st.Capacity, st.Seen)
	}
	r.seen = st.Seen
	r.items = append(r.items, st.Items...)
	return r, nil
}

// SampleWithoutReplacement draws n distinct indices from [0, population)
// uniformly at random. If n >= population, all indices are returned.
// It runs in O(n) expected time using Floyd's algorithm.
func SampleWithoutReplacement(population, n int, rng *rand.Rand) []int {
	if n >= population {
		out := make([]int, population)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if n <= 0 {
		return nil
	}
	chosen := make(map[int]struct{}, n)
	out := make([]int, 0, n)
	for j := population - n; j < population; j++ {
		t := rng.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// Bernoulli decides membership with probability p for each call; it is
// the per-tuple selection primitive behind the Eq. 8 variant of
// congressional sampling.
func Bernoulli(p float64, rng *rand.Rand) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return rng.Float64() < p
}

// BinomialApprox draws an approximately binomial(n, p) count. For small
// n it runs exact Bernoulli trials; for large n it uses a normal
// approximation clamped to [0, n]. Used only by simulation helpers, not
// by the samplers themselves.
func BinomialApprox(n int, p float64, rng *rand.Rand) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		c := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				c++
			}
		}
		return c
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	c := int(math.Round(rng.NormFloat64()*sd + mean))
	if c < 0 {
		c = 0
	}
	if c > n {
		c = n
	}
	return c
}
