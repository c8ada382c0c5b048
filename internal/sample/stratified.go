package sample

import (
	"fmt"
	"sort"
)

// Stratum is one stratum of a stratified sample: the sampled items from
// one finest-partitioning group, together with the group's population so
// the scale factor used by the Section 5 rewrites is known.
type Stratum[T any] struct {
	Key        string // canonical group key (see core.GroupKey)
	Population int64  // number of tuples of the base relation in this group (n_g)
	Items      []T    // the sampled tuples
}

// ScaleFactor returns the expansion factor Population/|Items| — the
// inverse of the stratum's sampling rate — applied to each sampled
// tuple when estimating aggregates. A stratum with no sampled
// items has scale factor 0 (it contributes nothing, and the group will
// be missing from approximate answers — the failure mode congressional
// samples exist to prevent).
func (s *Stratum[T]) ScaleFactor() float64 {
	if len(s.Items) == 0 {
		return 0
	}
	return float64(s.Population) / float64(len(s.Items))
}

// Stratified is a biased sample organized as named strata. It is the
// materialized form every allocation strategy in the paper produces:
// House degenerates to rates equal across strata, Senate to sizes equal
// across strata, Congress to the Eq. 5 allocation.
type Stratified[T any] struct {
	strata map[string]*Stratum[T]
}

// NewStratified returns an empty stratified sample.
func NewStratified[T any]() *Stratified[T] {
	return &Stratified[T]{strata: make(map[string]*Stratum[T])}
}

// Put inserts or replaces a stratum.
func (st *Stratified[T]) Put(s *Stratum[T]) { st.strata[s.Key] = s }

// Get returns the stratum for key, if present.
func (st *Stratified[T]) Get(key string) (*Stratum[T], bool) {
	s, ok := st.strata[key]
	return s, ok
}

// NumStrata returns the number of strata.
func (st *Stratified[T]) NumStrata() int { return len(st.strata) }

// Size returns the total number of sampled items across strata.
func (st *Stratified[T]) Size() int {
	n := 0
	for _, s := range st.strata {
		n += len(s.Items)
	}
	return n
}

// Population returns the total base population across strata.
func (st *Stratified[T]) Population() int64 {
	var n int64
	for _, s := range st.strata {
		n += s.Population
	}
	return n
}

// Keys returns the stratum keys in sorted order, for deterministic
// iteration.
func (st *Stratified[T]) Keys() []string {
	out := make([]string, 0, len(st.strata))
	for k := range st.strata {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Each calls fn for every stratum in sorted key order.
func (st *Stratified[T]) Each(fn func(*Stratum[T])) {
	for _, k := range st.Keys() {
		fn(st.strata[k])
	}
}

// Validate checks internal consistency: no stratum samples more items
// than its population and no negative populations.
func (st *Stratified[T]) Validate() error {
	for k, s := range st.strata {
		if s.Population < 0 {
			return fmt.Errorf("sample: stratum %q has negative population %d", k, s.Population)
		}
		if int64(len(s.Items)) > s.Population {
			return fmt.Errorf("sample: stratum %q samples %d of %d tuples", k, len(s.Items), s.Population)
		}
	}
	return nil
}
