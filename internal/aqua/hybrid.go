package aqua

import (
	"sort"
	"strings"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/interval"
)

// Hybrid exact-aggregate support (AQP++-style): alongside the sample, a
// synopsis maintains an exact datacube over its grouping set G with SUM
// and non-null-COUNT measure prefixes for every numeric base column,
// fed by the same insert stream as the maintainer. A direct-estimation
// query whose grouping is covered by G and whose aggregate column is a
// tracked measure can then be answered exactly — zero-width confidence
// contribution — with the congressional sample reserved for whatever
// the cube does not cover (other shards, stale cubes, non-measure
// columns).
//
// Staleness contract: exactEpoch records the synopsis epoch the cube
// was last known synchronized at. Inserts feed the cube and re-sync it;
// every other epoch advance (Refresh, UpdateScaleFactor, restore from a
// snapshot whose cube was not exported fresh) leaves exactEpoch behind,
// so ExactPartials refuses to answer until the next insert proves the
// feed is live again. The guard is deliberately conservative: a cube
// that cannot be proven current contributes nothing, and the estimator
// falls back to the pure-sample path.

// exactMeasureOrdinals returns the base-schema ordinals of the columns
// the exact cube tracks as measures: every column whose Value kind
// converts through AsFloat (Int, Float, Date, Bool) — the same set the
// estimate path can aggregate.
func exactMeasureOrdinals(schema *engine.Schema) []int {
	var out []int
	for i, col := range schema.Cols {
		switch col.Kind {
		case engine.KindInt, engine.KindFloat, engine.KindDate, engine.KindBool:
			out = append(out, i)
		}
	}
	return out
}

// newExactCube builds the empty exact cube for a synopsis grouping over
// the base schema. Measure names are the canonical schema column names.
func newExactCube(schema *engine.Schema, groupCols []string) (*datacube.Cube, []int, map[int]string, map[int]int, error) {
	ords := exactMeasureOrdinals(schema)
	measures := make([]string, len(ords))
	byOrdinal := make(map[int]string, len(ords))
	for i, ci := range ords {
		measures[i] = schema.Cols[ci].Name
		byOrdinal[ci] = schema.Cols[ci].Name
	}
	cube, err := datacube.NewWithMeasures(groupCols, measures)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	groupPos := make(map[int]int, len(groupCols))
	for pos, gc := range groupCols {
		groupPos[schema.Index(gc)] = pos
	}
	return cube, ords, byOrdinal, groupPos, nil
}

// feedExactLocked records one inserted row in the exact cube. Callers
// must hold s.mu. A nil cube (legacy restore, build failure) is a no-op.
func (s *Synopsis) feedExactLocked(row engine.Row) {
	if s.exact == nil {
		return
	}
	groupIdx := s.grouping.Columns()
	id := make(datacube.GroupID, len(groupIdx))
	for i, ci := range groupIdx {
		id[i] = row[ci].String()
	}
	vals := make([]datacube.MeasureValue, len(s.exactMeasureIdx))
	for i, ci := range s.exactMeasureIdx {
		v, ok := row[ci].AsFloat()
		vals[i] = datacube.MeasureValue{V: v, OK: ok}
	}
	// The cube must never silently diverge from the base relation: any
	// feed error (impossible for a well-formed row, but defensive) drops
	// the cube entirely rather than leaving it subtly wrong.
	if err := s.exact.AddMeasured(id, vals); err != nil {
		s.exact = nil
	}
}

// syncExactEpoch publishes that the cube is synchronized at epoch e.
// Monotonic: a concurrent insert that observed a later epoch wins, so
// exactEpoch can never regress below the freshest proven sync point.
func (s *Synopsis) syncExactEpoch(e uint64) {
	for {
		cur := s.exactEpoch.Load()
		if cur >= e || s.exactEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// ExactCoverage reports whether the synopsis currently holds a fresh
// exact cube (diagnostics and tests).
func (s *Synopsis) ExactCoverage() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.exact != nil && s.exactEpoch.Load() == s.epoch.Load()
}

// ExactPartials answers a direct-estimation request entirely from the
// exact cube: one GroupPartial per non-empty group carrying only exact
// mass (ExactSum, ExactCount), which Finalize turns into zero-width
// estimates. groupCols and aggCol are resolved base-schema ordinals (the
// same ones the sample path scans), so exact and sampled answers agree
// on keys and semantics: group keys are the rendered values joined in
// request order, and groups whose aggregate column is entirely NULL are
// omitted exactly as the sample path drops them.
//
// ok is false — and the caller must fall back to the sample — when the
// cube is missing or stale, the grouping is not a subset of G, or the
// aggregate column is not a tracked measure.
func (s *Synopsis) ExactPartials(groupCols []int, aggCol int) ([]estimate.GroupPartial, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.exact == nil || s.exactEpoch.Load() != s.epoch.Load() {
		return nil, false
	}
	measure, ok := s.exactMeasureName[aggCol]
	if !ok {
		return nil, false
	}
	// Map each requested column to its position in G; the projection mask
	// selects those positions, and perm rebuilds keys in request order
	// from the cube's G-ordered key parts.
	mask := uint32(0)
	positions := make([]int, len(groupCols))
	for i, ci := range groupCols {
		pos, ok := s.exactGroupPos[ci]
		if !ok {
			return nil, false
		}
		positions[i] = pos
		mask |= 1 << uint(pos)
	}
	// Rank the *distinct* selected positions in ascending G order — the
	// order GroupID.Project emits key parts in. Duplicate requested
	// columns map to the same part.
	selected := append([]int(nil), positions...)
	sort.Ints(selected)
	rank := make(map[int]int, len(selected))
	for _, pos := range selected {
		if _, seen := rank[pos]; !seen {
			rank[pos] = len(rank)
		}
	}

	var out []estimate.GroupPartial
	found := s.exact.MeasureGroupsUnder(mask, measure, func(key string, count int64, sum float64, nonNull int64) {
		if nonNull == 0 {
			// Every row's aggregate value is NULL: the sample path never
			// observes a passing row for this group and drops it; match.
			return
		}
		outKey := key
		if len(groupCols) == 0 {
			outKey = ""
		} else {
			parts := strings.Split(key, datacube.KeySep)
			ordered := make([]string, len(groupCols))
			for i, pos := range positions {
				ordered[i] = parts[rank[pos]]
			}
			outKey = strings.Join(ordered, datacube.KeySep)
		}
		m := interval.NewMoments()
		m.ExactSum, m.ExactCount = sum, float64(nonNull)
		out = append(out, estimate.GroupPartial{Key: outKey, Moments: m})
	})
	if !found {
		return nil, false
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, true
}
