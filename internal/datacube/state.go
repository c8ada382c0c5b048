package datacube

import (
	"fmt"
	"sort"
)

// GroupCount pairs a finest GroupID with its tuple count and, for cubes
// tracking measures, the group's exact per-measure SUM and non-null
// COUNT (aligned with CubeState.Measures). Nil slices on count-only
// cubes and in states written before measures existed; gob decodes old
// encodings with the new fields left nil.
type GroupCount struct {
	ID      GroupID
	Count   int64
	Sums    []float64
	NonNull []int64
}

// CubeState is the serializable state of a Cube. Only the finest-grouping
// counts are stored: every coarser grouping's count is the exact sum of
// the finest counts it covers, so Restore rebuilds the full cube from the
// finest groups alone via AddN. This keeps snapshots O(groups) instead of
// O(2^|G| · groups). Measure prefixes follow the same rule: coarser sums
// are sums of finest sums.
type CubeState struct {
	Attrs    []string
	Groups   []GroupCount
	Measures []string
}

// AddN records n tuples belonging to the given finest group at once,
// updating every grouping's counter. It is Add generalized to a batch;
// Restore uses it to rebuild coarser masks from finest-group counts.
func (c *Cube) AddN(id GroupID, n int64) error {
	_, err := c.addN(id, n)
	return err
}

// State exports the cube's serializable state. Groups are sorted by
// finest key so the encoding is deterministic.
func (c *Cube) State() *CubeState {
	st := &CubeState{
		Attrs:    append([]string(nil), c.attrs...),
		Measures: append([]string(nil), c.measures...),
	}
	finestMask := c.FinestMask()
	finest := c.counts[finestMask]
	keys := make([]string, 0, len(finest))
	for k := range finest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		gc := GroupCount{
			ID:    append(GroupID(nil), c.ids[k]...),
			Count: finest[k],
		}
		if len(c.measures) > 0 {
			gc.Sums = make([]float64, len(c.measures))
			gc.NonNull = make([]int64, len(c.measures))
			for mi := range c.measures {
				gc.Sums[mi] = c.sums[mi][finestMask][k]
				gc.NonNull[mi] = c.nonNull[mi][finestMask][k]
			}
		}
		st.Groups = append(st.Groups, gc)
	}
	return st
}

// RestoreCube rebuilds a cube from exported state.
func RestoreCube(st *CubeState) (*Cube, error) {
	if st == nil {
		return nil, fmt.Errorf("datacube: nil cube state")
	}
	c, err := NewWithMeasures(st.Attrs, st.Measures)
	if err != nil {
		return nil, err
	}
	for _, g := range st.Groups {
		if len(st.Measures) > 0 {
			sums, nonNull := g.Sums, g.NonNull
			if sums == nil {
				sums = make([]float64, len(st.Measures))
			}
			if nonNull == nil {
				nonNull = make([]int64, len(st.Measures))
			}
			if err := c.AddMeasuredN(g.ID, g.Count, sums, nonNull); err != nil {
				return nil, err
			}
		} else if err := c.AddN(g.ID, g.Count); err != nil {
			return nil, err
		}
	}
	return c, nil
}
