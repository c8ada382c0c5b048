// Package tpcd generates the evaluation data of Section 7.1.1: a
// TPC-D-style lineitem table whose group sizes and aggregate values
// follow Zipf distributions with configurable skew, replacing the
// benchmark's original nearly-uniform distributions exactly as the
// paper's authors did.
//
// The schema matches the paper's reduced lineitem:
//
//	l_id            INTEGER  primary key (1, 2, ...)
//	l_returnflag    INTEGER  grouping
//	l_linestatus    INTEGER  grouping
//	l_shipdate      DATE     grouping
//	l_quantity      FLOAT    aggregation
//	l_extendedprice FLOAT    aggregation
//
// For NG requested groups, each of the three grouping columns receives
// NG^(1/3) distinct randomly chosen values and the groups are the full
// cross product, per Section 7.1.1.
package tpcd

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/zipf"
)

// GroupingAttrs are the grouping (dimensional) attributes of lineitem.
var GroupingAttrs = []string{"l_returnflag", "l_linestatus", "l_shipdate"}

// Params configures the generator, mirroring Table 1 of the paper.
type Params struct {
	// TableSize is T: number of tuples. Paper range 100K-6M, default 1M.
	TableSize int
	// NumGroups is NG: requested group count. Rounded to the nearest
	// perfect cube so the three grouping columns split it evenly.
	// Paper range 10-200K, default 1000.
	NumGroups int
	// GroupSkew is the Zipf z for group sizes (0-1.5, default 0.86).
	GroupSkew float64
	// AggSkew is the Zipf z for aggregate values (paper fixes 0.86).
	AggSkew float64
	// AggDomain is the number of distinct aggregate values (default 1000).
	AggDomain int
	// Seed makes generation deterministic.
	Seed int64
}

// Defaults are the paper's default parameter values (Table 1).
var Defaults = Params{
	TableSize: 1_000_000,
	NumGroups: 1000,
	GroupSkew: 0.86,
	AggSkew:   0.86,
	AggDomain: 1000,
	Seed:      1,
}

// withDefaults fills zero fields from Defaults.
func (p Params) withDefaults() Params {
	d := Defaults
	if p.TableSize != 0 {
		d.TableSize = p.TableSize
	}
	if p.NumGroups != 0 {
		d.NumGroups = p.NumGroups
	}
	if p.GroupSkew != 0 {
		d.GroupSkew = p.GroupSkew
	}
	d.GroupSkew = math.Max(0, d.GroupSkew)
	if p.AggSkew != 0 {
		d.AggSkew = p.AggSkew
	}
	if p.AggDomain > 0 {
		d.AggDomain = p.AggDomain
	}
	if p.Seed != 0 {
		d.Seed = p.Seed
	}
	return d
}

// PerColumnValues returns the distinct-value count per grouping column
// for a requested group count: round(NG^(1/3)), at least 1.
func PerColumnValues(numGroups int) int {
	c := int(math.Round(math.Cbrt(float64(numGroups))))
	if c < 1 {
		c = 1
	}
	return c
}

// Schema returns the lineitem schema.
func Schema() *engine.Schema {
	return engine.MustSchema(
		engine.Column{Name: "l_id", Kind: engine.KindInt},
		engine.Column{Name: "l_returnflag", Kind: engine.KindInt},
		engine.Column{Name: "l_linestatus", Kind: engine.KindInt},
		engine.Column{Name: "l_shipdate", Kind: engine.KindDate},
		engine.Column{Name: "l_quantity", Kind: engine.KindFloat},
		engine.Column{Name: "l_extendedprice", Kind: engine.KindFloat},
	)
}

// Generate builds the lineitem relation. Group sizes follow
// Zipf(GroupSkew) over the cross-product groups (every group non-empty
// when TableSize >= NumGroups); aggregate values follow Zipf(AggSkew)
// over AggDomain distinct values. Tuples are shuffled before l_id
// assignment so an l_id range predicate (the Q_g0 workload) selects
// uniformly across groups.
func Generate(p Params) (*engine.Relation, error) {
	p = p.withDefaults()
	if p.TableSize < 1 {
		return nil, fmt.Errorf("tpcd: table size %d too small", p.TableSize)
	}
	rng := rand.New(rand.NewSource(p.Seed))

	c := PerColumnValues(p.NumGroups)
	ng := c * c * c
	if p.TableSize < ng {
		return nil, fmt.Errorf("tpcd: table size %d cannot populate %d groups", p.TableSize, ng)
	}

	// Distinct values per grouping column: random but reproducible.
	flags := distinctInts(rng, c, 1000)
	statuses := distinctInts(rng, c, 1000)
	dates := distinctDates(rng, c)

	// Zipf group sizes, assigned to randomly permuted groups so size is
	// uncorrelated with attribute values.
	groupDist, err := zipf.New(ng, p.GroupSkew)
	if err != nil {
		return nil, err
	}
	counts := groupDist.Counts(p.TableSize)
	perm := rng.Perm(ng)

	aggDist, err := zipf.New(p.AggDomain, p.AggSkew)
	if err != nil {
		return nil, err
	}

	rows := make([]engine.Row, 0, p.TableSize)
	for gi := 0; gi < ng; gi++ {
		g := perm[gi]
		fi := g / (c * c)
		si := (g / c) % c
		di := g % c
		n := counts[gi]
		for i := 0; i < n; i++ {
			qty := float64(aggDist.Next(rng) + 1)
			price := float64(aggDist.Next(rng)+1) * 1.5
			rows = append(rows, engine.Row{
				engine.Null, // l_id assigned after shuffle
				engine.NewInt(int64(flags[fi])),
				engine.NewInt(int64(statuses[si])),
				dates[di],
				engine.NewFloat(qty),
				engine.NewFloat(price),
			})
		}
	}

	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for i := range rows {
		rows[i][0] = engine.NewInt(int64(i + 1))
	}

	rel := engine.NewRelation("lineitem", Schema())
	if err := rel.InsertAll(rows); err != nil {
		return nil, err
	}
	return rel, nil
}

// MustGenerate is Generate but panics on error.
func MustGenerate(p Params) *engine.Relation {
	rel, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return rel
}

// distinctInts draws n distinct ints from [0, domain), enlarging the
// domain if needed.
func distinctInts(rng *rand.Rand, n, domain int) []int {
	if domain < n {
		domain = n
	}
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		v := rng.Intn(domain)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// distinctDates draws n distinct dates from the TPC-D shipping window
// (1992-01-01 .. 1998-12-31).
func distinctDates(rng *rand.Rand, n int) []engine.Value {
	start := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC).Unix() / 86400
	end := time.Date(1998, 12, 31, 0, 0, 0, 0, time.UTC).Unix() / 86400
	span := int(end - start + 1)
	if span < n {
		span = n
	}
	seen := make(map[int]bool, n)
	out := make([]engine.Value, 0, n)
	for len(out) < n {
		d := rng.Intn(span)
		if !seen[d] {
			seen[d] = true
			out = append(out, engine.NewDate(start+int64(d)))
		}
	}
	return out
}
