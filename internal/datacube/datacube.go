// Package datacube maintains tuple counts for every group under every
// grouping T ⊆ G of a relation's grouping attributes — the "data cube of
// the counts of each group in all possible groupings" that Section 6 of
// the paper uses to size congressional samples. The cube is built in one
// pass and is incrementally maintainable: each inserted tuple updates
// 2^|G| counters, matching the paper's stated per-insert bookkeeping
// cost for Congress maintenance.
package datacube

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// KeySep separates per-attribute key components inside a composite group
// key. Attribute keys produced by engine.Value.GroupKey begin with a
// NUL byte, so the separator cannot collide with key contents.
const KeySep = "\x1f"

// GroupID identifies a tuple's group at the finest partitioning: one
// canonical key string per grouping attribute, in attribute order.
type GroupID []string

// Project returns the composite key of the group this tuple belongs to
// under the grouping selected by mask (bit i set = attribute i present):
// the selected parts in attribute order, joined by KeySep, so an empty
// part still takes its place. The empty grouping projects to the empty
// string: all tuples share one group, per the paper's convention that a
// query with no group-by returns a single group.
func (g GroupID) Project(mask uint32) string {
	n := -len(KeySep)
	for i, part := range g {
		if mask&(1<<uint(i)) != 0 {
			n += len(KeySep) + len(part)
		}
	}
	if n < 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n)
	sep := ""
	for i, part := range g {
		if mask&(1<<uint(i)) != 0 {
			b.WriteString(sep)
			b.WriteString(part)
			sep = KeySep
		}
	}
	return b.String()
}

// Key returns the finest-grouping composite key (all attributes).
func (g GroupID) Key() string {
	return g.Project((1 << uint(len(g))) - 1)
}

// Cube counts tuples per group for all 2^n groupings over n grouping
// attributes.
type Cube struct {
	attrs  []string
	counts []map[string]int64 // counts[mask][compositeKey] = n_group
	ids    map[string]GroupID // finest key -> the id that produced it
	total  int64

	// Optional exact measure prefixes (see measures.go). Nil slices when
	// the cube tracks counts only.
	measures []string
	mIndex   map[string]int
	sums     [][]map[string]float64 // sums[measure][mask][compositeKey]
	nonNull  [][]map[string]int64   // nonNull[measure][mask][compositeKey]

	// sorted[mask] caches the keys of counts[mask] in sorted order for
	// MeasureGroupsUnder. Groups are only ever added, so a cached slice
	// is current while its length equals the mask's group count.
	// Concurrent readers may each rebuild it; any stored slice is right.
	sorted []atomic.Pointer[[]string]
	// keyBuf holds the tuple being added's key under every mask.
	keyBuf []string
}

// MaxAttrs bounds the number of grouping attributes; the cube costs
// 2^n counters per tuple, so n is kept small (the paper uses 3).
const MaxAttrs = 16

// New creates a cube over the named grouping attributes.
func New(attrs []string) (*Cube, error) {
	if len(attrs) == 0 {
		return nil, errors.New("datacube: need at least one grouping attribute")
	}
	if len(attrs) > MaxAttrs {
		return nil, fmt.Errorf("datacube: %d grouping attributes exceeds limit %d", len(attrs), MaxAttrs)
	}
	c := &Cube{
		attrs:  append([]string(nil), attrs...),
		counts: make([]map[string]int64, 1<<uint(len(attrs))),
		ids:    make(map[string]GroupID),
		sorted: make([]atomic.Pointer[[]string], 1<<uint(len(attrs))),
		keyBuf: make([]string, 1<<uint(len(attrs))),
	}
	for i := range c.counts {
		c.counts[i] = make(map[string]int64)
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(attrs []string) *Cube {
	c, err := New(attrs)
	if err != nil {
		panic(err)
	}
	return c
}

// Attrs returns the grouping attribute names.
func (c *Cube) Attrs() []string { return c.attrs }

// NumAttrs returns |G|.
func (c *Cube) NumAttrs() int { return len(c.attrs) }

// NumGroupings returns 2^|G|.
func (c *Cube) NumGroupings() int { return len(c.counts) }

// Add records one tuple belonging to the given finest group, updating
// every grouping's counter.
func (c *Cube) Add(id GroupID) error {
	return c.AddN(id, 1)
}

// addN validates id and n, records n tuples of the group id under
// every grouping and returns the group's key under each mask (indexed
// by mask; valid until the next add). Each key equals id.Project(mask)
// and is built once, from the key of the mask without its highest
// attribute. n == 0 leaves the counts alone but still returns the keys.
func (c *Cube) addN(id GroupID, n int64) ([]string, error) {
	if len(id) != len(c.attrs) {
		return nil, fmt.Errorf("datacube: group id has %d parts, cube has %d attributes", len(id), len(c.attrs))
	}
	if n < 0 {
		return nil, fmt.Errorf("datacube: negative group count %d", n)
	}
	keys := c.keyBuf
	keys[0] = ""
	for mask := 1; mask < len(keys); mask++ {
		hi := bits.Len(uint(mask)) - 1
		if rest := mask &^ (1 << hi); rest == 0 {
			keys[mask] = id[hi]
		} else {
			keys[mask] = keys[rest] + KeySep + id[hi]
		}
	}
	if n == 0 {
		return keys, nil
	}
	for mask, key := range keys {
		c.counts[mask][key] += n
	}
	finest := keys[len(keys)-1]
	if _, ok := c.ids[finest]; !ok {
		c.ids[finest] = append(GroupID(nil), id...)
	}
	c.total += n
	return keys, nil
}

// ID returns the GroupID that produced the given finest-group key.
func (c *Cube) ID(finestKey string) (GroupID, bool) {
	id, ok := c.ids[finestKey]
	return id, ok
}

// FinestIDs calls fn for each non-empty finest group with its GroupID
// and count, in unspecified order.
func (c *Cube) FinestIDs(fn func(id GroupID, key string, count int64)) {
	for k, n := range c.counts[c.FinestMask()] {
		fn(c.ids[k], k, n)
	}
}

// Total returns the number of tuples recorded.
func (c *Cube) Total() int64 { return c.total }

// Count returns n_h: the number of tuples in the group identified by the
// composite key under the grouping selected by mask.
func (c *Cube) Count(mask uint32, key string) int64 {
	return c.counts[mask][key]
}

// CountFor returns the count of the group that a tuple with the given
// finest GroupID belongs to under grouping mask (n_{g(τ,T)} in Eq. 8).
func (c *Cube) CountFor(mask uint32, id GroupID) int64 {
	return c.counts[mask][id.Project(mask)]
}

// NumGroups returns m_T: the number of non-empty groups under the
// grouping selected by mask.
func (c *Cube) NumGroups(mask uint32) int {
	return len(c.counts[mask])
}

// FinestMask returns the mask selecting all attributes.
func (c *Cube) FinestMask() uint32 {
	return uint32(len(c.counts) - 1)
}

// FinestGroups calls fn for each non-empty finest group with its count.
// Iteration order is unspecified; callers needing determinism should
// sort the keys.
func (c *Cube) FinestGroups(fn func(key string, count int64)) {
	for k, n := range c.counts[c.FinestMask()] {
		fn(k, n)
	}
}

// GroupsUnder calls fn for each non-empty group under grouping mask.
func (c *Cube) GroupsUnder(mask uint32, fn func(key string, count int64)) {
	for k, n := range c.counts[mask] {
		fn(k, n)
	}
}

// Merge folds another cube's counts into this one. Both cubes must be
// defined over the same grouping attributes (in the same order). Merging
// is how parallel one-pass construction combines per-worker partial
// cubes into the full data cube; counts are additive, so the result is
// identical to a single sequential scan.
func (c *Cube) Merge(other *Cube) error {
	if len(other.attrs) != len(c.attrs) {
		return fmt.Errorf("datacube: merging cube with %d attributes into cube with %d", len(other.attrs), len(c.attrs))
	}
	for i, a := range c.attrs {
		if other.attrs[i] != a {
			return fmt.Errorf("datacube: merging cube over %v into cube over %v", other.attrs, c.attrs)
		}
	}
	if !sameMeasures(c, other) {
		return fmt.Errorf("datacube: merging cube over measures %v into cube over measures %v", other.measures, c.measures)
	}
	for mask, m := range other.counts {
		dst := c.counts[mask]
		for k, v := range m {
			dst[k] += v
		}
	}
	for mi := range c.measures {
		for mask := range other.sums[mi] {
			dstS, dstN := c.sums[mi][mask], c.nonNull[mi][mask]
			for k, v := range other.sums[mi][mask] {
				dstS[k] += v
			}
			for k, v := range other.nonNull[mi][mask] {
				dstN[k] += v
			}
		}
	}
	for k, id := range other.ids {
		if _, ok := c.ids[k]; !ok {
			c.ids[k] = append(GroupID(nil), id...)
		}
	}
	c.total += other.total
	return nil
}

// Clone returns a deep copy of the cube.
func (c *Cube) Clone() *Cube {
	out, err := NewWithMeasures(c.attrs, c.measures)
	if err != nil {
		panic(err)
	}
	out.total = c.total
	for mask, m := range c.counts {
		dst := out.counts[mask]
		for k, v := range m {
			dst[k] = v
		}
	}
	for mi := range c.measures {
		for mask := range c.sums[mi] {
			dstS, dstN := out.sums[mi][mask], out.nonNull[mi][mask]
			for k, v := range c.sums[mi][mask] {
				dstS[k] = v
			}
			for k, v := range c.nonNull[mi][mask] {
				dstN[k] = v
			}
		}
	}
	for k, id := range c.ids {
		out.ids[k] = append(GroupID(nil), id...)
	}
	return out
}
