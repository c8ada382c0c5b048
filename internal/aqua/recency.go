package aqua

import (
	"fmt"
	"math"
	"sort"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
)

// Recency configures the Section 8 "Generalization to Other Queries"
// ageing bias: "if a sample of the sales data were used to analyze the
// impact of a recent sales promotion, the sample would be more effective
// if the most recent sales data were better represented". The named
// column's distinct values are ordered; the newest value's groups get
// relative weight 1, the next Decay, then Decay², and so on. The
// resulting preference vector competes with the strategy's vectors in
// the Figure 19 combination, so recent data gains space without any
// group losing its congressional floor.
type Recency struct {
	// Column is the ageing attribute; it must be one of the synopsis's
	// grouping columns (typically a date).
	Column string
	// Decay is the per-step weight multiplier, in (0, 1]. 0.5 halves a
	// value's weight each step into the past.
	Decay float64
}

// recencyVector builds the preference weight vector for the configured
// ageing bias.
func recencyVector(r *Recency, rel *engine.Relation, g *core.Grouping, cube *datacube.Cube, x float64) (core.WeightVector, error) {
	if r.Decay <= 0 || r.Decay > 1 {
		return core.WeightVector{}, fmt.Errorf("aqua: recency decay %v out of (0, 1]", r.Decay)
	}
	mask, err := core.MaskFor(cube, []string{r.Column})
	if err != nil {
		return core.WeightVector{}, err
	}
	ci := rel.Schema.Index(r.Column)
	if ci < 0 {
		return core.WeightVector{}, fmt.Errorf("aqua: unknown recency column %q", r.Column)
	}

	// Order the column's distinct values (newest = greatest) and assign
	// geometric weights by rank.
	type dv struct {
		key string
		val engine.Value
	}
	seen := make(map[string]engine.Value)
	for _, row := range rel.Rows() {
		v := row[ci]
		seen[v.GroupKey()] = v
	}
	distinct := make([]dv, 0, len(seen))
	for k, v := range seen {
		distinct = append(distinct, dv{key: k, val: v})
	}
	sort.Slice(distinct, func(i, j int) bool {
		if c := distinct[i].val.Compare(distinct[j].val); c != 0 {
			return c > 0 // newest first
		}
		return distinct[i].key < distinct[j].key // a total order, so norm sums in one order
	})
	prefs := make(map[string]float64, len(distinct))
	var norm float64
	for rank, d := range distinct {
		w := math.Pow(r.Decay, float64(rank))
		prefs[d.key] = w
		norm += w
	}
	for k := range prefs {
		prefs[k] /= norm
	}
	v := core.PreferenceVector(cube, x, mask, prefs)
	v.Name = "recency(" + r.Column + ")"
	return v, nil
}
