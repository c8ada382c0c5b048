package datacube

import (
	"fmt"
	"slices"
)

// Measure support: beyond tuple counts, a cube can carry exact SUM and
// non-null COUNT prefixes for a set of measure columns, maintained for
// every grouping T ⊆ G alongside the counters. This is the precomputed
// exact-aggregate side of the hybrid estimator (AQP++-style): a query
// whose group-by set is covered by G and whose aggregate column is a
// tracked measure can be answered exactly from the cube, with the
// congressional sample reserved for the residual.
//
// A measure value may be null (the source row's column was NULL or not
// numeric); nulls contribute to the tuple count but not to the measure's
// sum or non-null count, matching SQL SUM/COUNT(col) semantics.

// MeasureValue carries one measure column's contribution for a tuple.
// OK=false means NULL: no sum or non-null-count contribution.
type MeasureValue struct {
	V  float64
	OK bool
}

// NewWithMeasures creates a cube over the named grouping attributes that
// additionally tracks exact SUM and non-null COUNT for each measure
// column. Measure names must be non-empty and distinct.
func NewWithMeasures(attrs, measures []string) (*Cube, error) {
	c, err := New(attrs)
	if err != nil {
		return nil, err
	}
	if len(measures) == 0 {
		return c, nil
	}
	c.measures = append([]string(nil), measures...)
	c.mIndex = make(map[string]int, len(measures))
	for i, m := range measures {
		if m == "" {
			return nil, fmt.Errorf("datacube: empty measure name at index %d", i)
		}
		if _, dup := c.mIndex[m]; dup {
			return nil, fmt.Errorf("datacube: duplicate measure %q", m)
		}
		c.mIndex[m] = i
	}
	c.sums = make([][]map[string]float64, len(measures))
	c.nonNull = make([][]map[string]int64, len(measures))
	for i := range measures {
		c.sums[i] = make([]map[string]float64, len(c.counts))
		c.nonNull[i] = make([]map[string]int64, len(c.counts))
		for mask := range c.counts {
			c.sums[i][mask] = make(map[string]float64)
			c.nonNull[i][mask] = make(map[string]int64)
		}
	}
	return c, nil
}

// Measures returns the tracked measure column names (nil if none).
func (c *Cube) Measures() []string { return c.measures }

// AddMeasured records one tuple with its measure values, updating every
// grouping's counter and measure prefixes. vals must align with the
// cube's measure list (Measures()); on a cube without measures it
// degrades to Add.
func (c *Cube) AddMeasured(id GroupID, vals []MeasureValue) error {
	if len(vals) != len(c.measures) {
		return fmt.Errorf("datacube: %d measure values, cube tracks %d measures", len(vals), len(c.measures))
	}
	keys, err := c.addN(id, 1)
	if err != nil {
		return err
	}
	for mi, mv := range vals {
		if !mv.OK {
			continue
		}
		for mask, key := range keys {
			c.sums[mi][mask][key] += mv.V
			c.nonNull[mi][mask][key]++
		}
	}
	return nil
}

// AddMeasuredN records n tuples of the given finest group along with the
// group's aggregate measure contributions (total sum, total non-null
// count per measure). Restore uses it to rebuild coarser masks from
// finest-group state.
func (c *Cube) AddMeasuredN(id GroupID, n int64, sums []float64, nonNull []int64) error {
	if len(sums) != len(c.measures) || len(nonNull) != len(c.measures) {
		return fmt.Errorf("datacube: measure batch has %d/%d entries, cube tracks %d measures",
			len(sums), len(nonNull), len(c.measures))
	}
	// Validate before touching any counter: addN mutates every mask, and
	// a rejected batch must leave the cube exactly as it was.
	for mi := range c.measures {
		if nonNull[mi] < 0 {
			return fmt.Errorf("datacube: negative non-null count %d for measure %q", nonNull[mi], c.measures[mi])
		}
	}
	keys, err := c.addN(id, n)
	if err != nil {
		return err
	}
	for mi := range c.measures {
		if nonNull[mi] == 0 && sums[mi] == 0 {
			continue
		}
		for mask, key := range keys {
			c.sums[mi][mask][key] += sums[mi]
			c.nonNull[mi][mask][key] += nonNull[mi]
		}
	}
	return nil
}

// MeasureGroupsUnder calls fn for each non-empty group under grouping
// mask with the group's tuple count and the named measure's exact sum
// and non-null count, in ascending key order. Returns false (without
// iterating) if the column is not a tracked measure. The sorted keys
// are cached per mask and re-sorted only after the mask gains groups,
// so concurrent readers (holding no lock that excludes each other) may
// call it; a writer must not run beside them.
func (c *Cube) MeasureGroupsUnder(mask uint32, col string, fn func(key string, count int64, sum float64, nonNull int64)) bool {
	mi, ok := c.mIndex[col]
	if !ok {
		return false
	}
	counts, sums, nn := c.counts[mask], c.sums[mi][mask], c.nonNull[mi][mask]
	for _, k := range c.sortedKeys(mask) {
		fn(k, counts[k], sums[k], nn[k])
	}
	return true
}

// sortedKeys returns the keys of grouping mask in ascending order.
func (c *Cube) sortedKeys(mask uint32) []string {
	counts := c.counts[mask]
	if p := c.sorted[mask].Load(); p != nil && len(*p) == len(counts) {
		return *p
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	c.sorted[mask].Store(&keys)
	return keys
}

// sameMeasures reports whether two cubes track the same measure list in
// the same order.
func sameMeasures(a, b *Cube) bool {
	if len(a.measures) != len(b.measures) {
		return false
	}
	for i, m := range a.measures {
		if b.measures[i] != m {
			return false
		}
	}
	return true
}
