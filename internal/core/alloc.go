// Package core implements the paper's primary contribution: the House,
// Senate, Basic Congress, and Congress sample-space allocation
// strategies (Section 4), the weight-vector generalization of Section 8,
// one-pass construction (Section 6), and incremental maintenance of
// every sample kind without access to the base relation.
//
// Terminology follows the paper. G is the full set of grouping
// attributes; the finest partitioning groups tuples on all of G and each
// such group becomes one stratum of the final biased sample. For a
// grouping T ⊆ G, m_T is the number of non-empty groups under T and n_h
// the population of group h under T.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/approxdb/congress/internal/datacube"
)

// errBudget rejects non-positive sample budgets.
var errBudget = errors.New("core: sample budget must be positive")

// Strategy selects one of the paper's allocation schemes.
type Strategy int

// The four allocation strategies of Section 4.
const (
	// House is a uniform random sample of the relation: space
	// proportional to group population (Section 4.3).
	House Strategy = iota
	// Senate divides space equally among the finest groups
	// (Section 4.4).
	Senate
	// BasicCongress takes the per-group max of House and Senate, scaled
	// back to the budget (Section 4.5).
	BasicCongress
	// Congress takes the per-group max of the S1-optimal allocations
	// over every T ⊆ G, scaled back to the budget (Section 4.6,
	// Eq. 5); the paper's recommended technique.
	Congress
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case House:
		return "House"
	case Senate:
		return "Senate"
	case BasicCongress:
		return "BasicCongress"
	case Congress:
		return "Congress"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all four schemes in presentation order, for
// experiment sweeps.
var Strategies = []Strategy{House, Senate, BasicCongress, Congress}

// WeightVector is one column of the Figure 19 allocation framework: a
// desired (pre-scaling) space assignment for each finest group. Vectors
// normally sum to the budget X; CombineVectors takes the row-wise max
// over vectors and rescales to X.
type WeightVector struct {
	Name    string
	Targets map[string]float64 // finest-group key -> desired space
}

// Allocation is the outcome of a strategy: fractional per-finest-group
// targets that sum to X, plus the scale-down factor f of Eq. 6.
type Allocation struct {
	X         float64
	Targets   map[string]float64 // finest-group key -> allocated space
	PreScale  map[string]float64 // row-wise max before scaling
	ScaleDown float64            // f = X / Σ max
}

// Allocate computes the allocation for one of the built-in strategies
// over the group counts in cube with budget X (in tuples). Callers that
// add Section 8 vectors (Figure 19) combine StrategyVectors with theirs
// through CombineVectors, as aqua.CreateSynopsis does.
func Allocate(strategy Strategy, cube *datacube.Cube, x int) (*Allocation, error) {
	if x <= 0 {
		return nil, errBudget
	}
	if cube.Total() == 0 {
		return nil, errors.New("core: cannot allocate over an empty relation")
	}
	X := float64(x)
	vecs, err := StrategyVectors(strategy, cube, X)
	if err != nil {
		return nil, err
	}
	return CombineVectors(X, vecs...), nil
}

// StrategyVectors returns the weight vectors a built-in strategy
// contributes to the Figure 19 combination table.
func StrategyVectors(strategy Strategy, cube *datacube.Cube, X float64) ([]WeightVector, error) {
	switch strategy {
	case House:
		return []WeightVector{HouseVector(cube, X)}, nil
	case Senate:
		return []WeightVector{SenateVector(cube, X)}, nil
	case BasicCongress:
		return []WeightVector{HouseVector(cube, X), SenateVector(cube, X)}, nil
	case Congress:
		return GroupingVectors(cube, X), nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", strategy)
	}
}

// HouseVector is the uniform-sample column: space X·n_g/|R| per finest
// group (equivalently, s_{g,∅} in Figure 5).
func HouseVector(cube *datacube.Cube, X float64) WeightVector {
	v := WeightVector{Name: "house", Targets: make(map[string]float64)}
	total := float64(cube.Total())
	cube.FinestGroups(func(key string, n int64) {
		v.Targets[key] = X * float64(n) / total
	})
	return v
}

// SenateVector is the equal-space column: X/m_G per finest group
// (s_{g,G} in Figure 5).
func SenateVector(cube *datacube.Cube, X float64) WeightVector {
	v := WeightVector{Name: "senate", Targets: make(map[string]float64)}
	m := float64(cube.NumGroups(cube.FinestMask()))
	cube.FinestGroups(func(key string, n int64) {
		v.Targets[key] = X / m
	})
	return v
}

// GroupingVector is the S1-optimal column for one grouping T (selected
// by mask): each group h under T receives X/m_T, divided among its
// finest subgroups g in proportion to n_g/n_h (Eq. 4).
func GroupingVector(cube *datacube.Cube, X float64, mask uint32) WeightVector {
	v := WeightVector{
		Name:    fmt.Sprintf("grouping-%b", mask),
		Targets: make(map[string]float64),
	}
	mT := float64(cube.NumGroups(mask))
	cube.FinestIDs(func(id datacube.GroupID, key string, n int64) {
		nh := float64(cube.CountFor(mask, id))
		v.Targets[key] = X / mT * float64(n) / nh
	})
	return v
}

// GroupingVectors returns the S1 columns for every T ⊆ G — the full
// Congress table of Figure 5.
func GroupingVectors(cube *datacube.Cube, X float64) []WeightVector {
	vecs := make([]WeightVector, 0, cube.NumGroupings())
	for mask := uint32(0); int(mask) < cube.NumGroupings(); mask++ {
		vecs = append(vecs, GroupingVector(cube, X, mask))
	}
	return vecs
}

// AllocateForGroupings specializes Congress to a known query mix: only
// the listed groupings (masks over the cube's attributes) compete for
// space, per the paper's observation that congressional samples "can be
// specialized to specific subsets of group-by queries". Passing all
// 2^|G| masks reproduces Congress; passing {0, finest} reproduces Basic
// Congress; a single mask reproduces S1 for that grouping.
func AllocateForGroupings(cube *datacube.Cube, x int, masks []uint32) (*Allocation, error) {
	if x <= 0 {
		return nil, errBudget
	}
	if cube.Total() == 0 {
		return nil, errors.New("core: cannot allocate over an empty relation")
	}
	if len(masks) == 0 {
		return nil, errors.New("core: at least one grouping mask required")
	}
	X := float64(x)
	vecs := make([]WeightVector, 0, len(masks))
	for _, m := range masks {
		if int(m) >= cube.NumGroupings() {
			return nil, fmt.Errorf("core: grouping mask %b out of range for %d attributes", m, cube.NumAttrs())
		}
		vecs = append(vecs, GroupingVector(cube, X, m))
	}
	return CombineVectors(X, vecs...), nil
}

// MaskFor converts a list of grouping attribute names (a subset of the
// cube's attributes) into the bit mask AllocateForGroupings expects.
func MaskFor(cube *datacube.Cube, attrs []string) (uint32, error) {
	var mask uint32
	for _, a := range attrs {
		found := false
		for i, ca := range cube.Attrs() {
			if ca == a {
				mask |= 1 << uint(i)
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("core: attribute %q not in grouping %v", a, cube.Attrs())
		}
	}
	return mask, nil
}

// PreferenceVector implements the Section 4.7 workload adaptation: given
// relative preferences r_h for groups h under grouping T (selected by
// mask), each finest subgroup g of h receives X·r_h·n_g/n_h. Groups
// absent from prefs get preference 0.
func PreferenceVector(cube *datacube.Cube, X float64, mask uint32, prefs map[string]float64) WeightVector {
	v := WeightVector{
		Name:    fmt.Sprintf("preference-%b", mask),
		Targets: make(map[string]float64),
	}
	cube.FinestIDs(func(id datacube.GroupID, key string, n int64) {
		h := id.Project(mask)
		r := prefs[h]
		nh := float64(cube.CountFor(mask, id))
		v.Targets[key] = X * r * float64(n) / nh
	})
	return v
}

// NeymanVector implements the Section 8 variance criterion via Neyman
// allocation: space proportional to n_g·σ_g, where stddevs maps each
// finest group to the standard deviation of the aggregate column within
// the group. Groups absent from stddevs are treated as zero-variance
// (they still receive space from the other vectors they are combined
// with).
func NeymanVector(cube *datacube.Cube, X float64, stddevs map[string]float64) WeightVector {
	v := WeightVector{Name: "neyman", Targets: make(map[string]float64)}
	var norm float64
	cube.FinestGroups(func(key string, n int64) {
		norm += float64(n) * stddevs[key]
	})
	cube.FinestGroups(func(key string, n int64) {
		if norm <= 0 {
			v.Targets[key] = 0
			return
		}
		v.Targets[key] = X * float64(n) * stddevs[key] / norm
	})
	return v
}

// CombineVectors applies the Figure 19 procedure: row-wise max over the
// weight vectors, then a uniform scale-down so the total equals X
// (Eq. 5/6). At least one vector must assign positive space somewhere.
func CombineVectors(X float64, vecs ...WeightVector) *Allocation {
	pre := make(map[string]float64)
	for _, v := range vecs {
		for key, t := range v.Targets {
			if t > pre[key] {
				pre[key] = t
			}
		}
	}
	// Sum in key order: a map-order float sum moves by ulps from run to
	// run, and with it ScaleDown and the integer rounding.
	var sum float64
	for _, key := range sortedKeys(pre) {
		sum += pre[key]
	}
	a := &Allocation{
		X:        X,
		Targets:  make(map[string]float64, len(pre)),
		PreScale: pre,
	}
	if sum <= 0 {
		a.ScaleDown = 1
		return a
	}
	a.ScaleDown = X / sum
	for key, t := range pre {
		a.Targets[key] = t * a.ScaleDown
	}
	return a
}

// Total returns the sum of the (fractional) targets; by construction it
// equals X up to rounding error.
func (a *Allocation) Total() float64 {
	var s float64
	for _, key := range sortedKeys(a.Targets) {
		s += a.Targets[key]
	}
	return s
}

// sortedKeys returns the keys of a target map in ascending order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// IntegerTargets converts fractional targets into integer sample sizes
// that sum exactly to min(X, Σ caps). Largest-remainder rounding
// preserves the allocation's proportions; each group's size is capped at
// its population (footnote 12: a group cannot contribute more tuples
// than it has), with the overflow redistributed to uncapped groups in
// proportion to their targets.
func (a *Allocation) IntegerTargets(populations map[string]int64) map[string]int {
	keys := sortedKeys(a.Targets)

	budget := int(math.Round(a.X))
	out := make(map[string]int, len(keys))
	capped := make(map[string]bool, len(keys))
	remaining := budget

	// Iteratively cap over-full groups and redistribute. Terminates in
	// at most len(keys) rounds because each round caps >= 1 new group.
	targets := make(map[string]float64, len(keys))
	var totalCap int64
	for _, k := range keys {
		targets[k] = a.Targets[k]
		totalCap += populations[k]
	}
	if int64(budget) >= totalCap {
		// Degenerate: the budget covers the whole relation.
		for _, k := range keys {
			out[k] = int(populations[k])
		}
		return out
	}
	for {
		var over float64
		var freeSum float64
		anyCapped := false
		for _, k := range keys {
			if capped[k] {
				continue
			}
			limit := float64(populations[k])
			if targets[k] > limit {
				over += targets[k] - limit
				targets[k] = limit
				capped[k] = true
				anyCapped = true
			} else {
				freeSum += targets[k]
			}
		}
		if !anyCapped || over <= 0 || freeSum <= 0 {
			break
		}
		scale := (freeSum + over) / freeSum
		for _, k := range keys {
			if !capped[k] {
				targets[k] *= scale
			}
		}
	}

	// Largest-remainder rounding to hit the budget exactly.
	type frac struct {
		key string
		f   float64
	}
	fracs := make([]frac, 0, len(keys))
	assigned := 0
	for _, k := range keys {
		w := int(targets[k])
		if int64(w) > populations[k] {
			w = int(populations[k])
		}
		out[k] = w
		assigned += w
		fracs = append(fracs, frac{key: k, f: targets[k] - float64(w)})
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].f != fracs[j].f {
			return fracs[i].f > fracs[j].f
		}
		return fracs[i].key < fracs[j].key
	})
	short := remaining - assigned
	for i := 0; short > 0 && i < len(fracs)*2; i++ {
		k := fracs[i%len(fracs)].key
		if int64(out[k]) < populations[k] {
			out[k]++
			short--
		}
	}
	return out
}
