package aqua

import (
	"fmt"
	"sort"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/rewrite"
)

// UpdateScaleFactor propagates a changed scale factor for one finest
// group into the materialized sample relations of the given rewrite
// layout. This isolates the maintenance-cost tradeoff Section 5.2
// identifies but does not measure: the Integrated layout stores the
// ScaleFactor on every tuple, so "insertion or deletion of tuples ...
// requires updating the ScaleFactor of all tuples in the affected
// groups", whereas the Normalized layouts confine the change to a
// single row of the (much smaller) auxiliary relation.
//
// The group is identified by its stratum key (the Key of one of
// Synopsis.Strata's ranges). The returned count is the number of
// relation rows touched — the quantity BenchmarkAblationUpdateCost
// compares across layouts.
func (a *Aqua) UpdateScaleFactor(table string, strat rewrite.Strategy, groupKey string, sf float64) (int, error) {
	s, ok := a.Synopsis(table)
	if !ok {
		return 0, fmt.Errorf("aqua: no synopsis for %q", table)
	}
	view := s.Strata()
	ranges := view.Ranges()
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].Key >= groupKey })
	if i == len(ranges) || ranges[i].Key != groupKey {
		return 0, fmt.Errorf("aqua: unknown group %q", groupKey)
	}
	if ranges[i].Lo == ranges[i].Hi {
		return 0, nil
	}
	first, gid := view.Row(ranges[i].Lo), engine.NewInt(int64(i+1))

	var (
		name  string
		match func(engine.Row) bool
	)
	switch strat {
	case rewrite.Integrated, rewrite.NestedIntegrated:
		// Every sampled tuple of the group carries the SF; the gid is the
		// sample relation's last column.
		name = s.sampleName
		match = func(row engine.Row) bool { return row[len(row)-1].Equal(gid) }
	case rewrite.Normalized:
		// The aux row holds the grouping column values; match on them.
		name = s.normAuxName
		want := make(engine.Row, 0, len(s.cfg.GroupCols))
		for _, ci := range s.grouping.Columns() {
			want = append(want, first[ci])
		}
		match = func(row engine.Row) bool {
			for i, v := range want {
				if !row[i].Equal(v) {
					return false
				}
			}
			return true
		}
	case rewrite.KeyNormalized:
		name = s.keyAuxName
		match = func(row engine.Row) bool { return row[0].Equal(gid) }
	default:
		return 0, fmt.Errorf("aqua: unknown rewrite strategy %v", strat)
	}
	rel, ok := a.cat.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("aqua: relation %q missing", name)
	}
	sfIdx := rel.Schema.Index("sf")
	newSF := engine.NewFloat(sf)
	n, err := rel.Update(match, func(row engine.Row) engine.Row {
		next := row.Clone()
		next[sfIdx] = newSF
		return next
	})
	if err == nil {
		s.bumpEpoch()
	}
	return n, err
}
