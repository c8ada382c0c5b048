package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// Grouping binds a relation schema to its grouping attributes G,
// providing GroupID extraction for rows.
type Grouping struct {
	Attrs []string // grouping attribute names, in mask-bit order
	cols  []int    // column ordinals in the schema
}

// NewGrouping resolves the grouping attribute names against the schema.
func NewGrouping(schema *engine.Schema, attrs []string) (*Grouping, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("core: grouping needs at least one attribute")
	}
	g := &Grouping{Attrs: append([]string(nil), attrs...), cols: make([]int, len(attrs))}
	for i, a := range attrs {
		idx := schema.Index(a)
		if idx < 0 {
			return nil, fmt.Errorf("core: grouping attribute %q not in schema of columns %v", a, schema.Names())
		}
		g.cols[i] = idx
	}
	return g, nil
}

// MustGrouping is NewGrouping but panics on error.
func MustGrouping(schema *engine.Schema, attrs []string) *Grouping {
	g, err := NewGrouping(schema, attrs)
	if err != nil {
		panic(err)
	}
	return g
}

// Columns returns the schema ordinals of the grouping attributes, in
// attribute (mask-bit) order.
func (g *Grouping) Columns() []int {
	return append([]int(nil), g.cols...)
}

// ID extracts the finest GroupID of a row.
func (g *Grouping) ID(row engine.Row) datacube.GroupID {
	id := make(datacube.GroupID, len(g.cols))
	for i, c := range g.cols {
		id[i] = row[c].GroupKey()
	}
	return id
}

// Key extracts the finest composite group key of a row without
// allocating the intermediate GroupID.
func (g *Grouping) Key(row engine.Row) string {
	if len(g.cols) == 1 {
		return row[g.cols[0]].GroupKey()
	}
	return g.ID(row).Key()
}

// DefaultWorkers returns the number of goroutines a build scan is split
// across: GOMAXPROCS. The worker count changes only the speed of a
// build, never its result.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// BuildCube scans the relation once and returns the full data cube of
// group counts (the precomputation assumed by the "constructing using a
// data cube" paragraph of Section 6). The scan is split into workers
// contiguous chunks whose partial cubes are merged; counts are additive,
// so the cube is the same at every worker count.
func BuildCube(rel *engine.Relation, g *Grouping, workers int) (*datacube.Cube, error) {
	rows := rel.Rows()
	type part struct {
		cube *datacube.Cube
		err  error
	}
	parts := scanChunks(len(rows), workers, func(lo, hi int) part {
		cube, err := datacube.New(g.Attrs)
		for i := lo; err == nil && i < hi; i++ {
			err = cube.Add(g.ID(rows[i]))
		}
		return part{cube, err}
	})
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
	}
	cube := parts[0].cube
	for _, p := range parts[1:] {
		if err := cube.Merge(p.cube); err != nil {
			return nil, err
		}
	}
	return cube, nil
}

// GroupStdDevs scans the relation once and returns each finest group's
// sample standard deviation of the named numeric column — the input to
// the Section 8 variance criterion (NeymanVector). Non-numeric and NULL
// values are skipped; single-tuple groups report zero.
func GroupStdDevs(rel *engine.Relation, g *Grouping, column string) (map[string]float64, error) {
	ci := rel.Schema.Index(column)
	if ci < 0 {
		return nil, fmt.Errorf("core: unknown column %q", column)
	}
	type acc struct {
		n        int64
		mean, m2 float64
	}
	accs := make(map[string]*acc)
	for _, row := range rel.Rows() {
		v, ok := row[ci].AsFloat()
		if !ok {
			continue
		}
		key := g.Key(row)
		a := accs[key]
		if a == nil {
			a = &acc{}
			accs[key] = a
		}
		a.n++
		d := v - a.mean
		a.mean += d / float64(a.n)
		a.m2 += d * (v - a.mean)
	}
	out := make(map[string]float64, len(accs))
	for key, a := range accs {
		if a.n < 2 {
			out[key] = 0
			continue
		}
		out[key] = math.Sqrt(a.m2 / float64(a.n-1))
	}
	return out, nil
}

// Materialize draws the sample prescribed by an allocation: in every
// finest group, a uniform random sample of the allocated size. Base row
// i gets the priority mix64(seed, i), and each group keeps the rows of
// smallest (priority, ordinal), as many as its integer target — a
// bottom-k sample (Cohen and Kaplan, "Summarizing Data using Bottom-k
// Sketches", PODC 2007). The scan is split into workers contiguous
// chunks, each keeping its own k smallest per group; the k smallest of
// the union are the k smallest of those, so the sample is a function of
// (rel, alloc, seed) alone and the worker count changes only speed.
// Each stratum lists its rows by ascending base ordinal.
func Materialize(rel *engine.Relation, g *Grouping, cube *datacube.Cube, alloc *Allocation, seed int64, workers int) (*sample.Stratified[engine.Row], error) {
	populations := make(map[string]int64)
	var keys []string
	cube.FinestGroups(func(key string, n int64) {
		populations[key] = n
		keys = append(keys, key)
	})
	targets := alloc.IntegerTargets(populations)
	slots := make(map[string]int, len(targets))
	var sizes []int
	for _, key := range keys {
		if n := targets[key]; n > 0 {
			slots[key] = len(sizes)
			sizes = append(sizes, n)
		}
	}

	rows := rel.Rows()
	chunks := scanChunks(len(rows), workers, func(lo, hi int) []bottomK {
		kept := make([]bottomK, len(sizes))
		for i := lo; i < hi; i++ {
			if s, ok := slots[g.Key(rows[i])]; ok {
				kept[s].offer(ranked{mix64(seed, i), i}, sizes[s])
			}
		}
		return kept
	})

	st := sample.NewStratified[engine.Row]()
	for _, key := range keys {
		stratum := &sample.Stratum[engine.Row]{Key: key, Population: populations[key]}
		if s, ok := slots[key]; ok {
			var union []ranked
			for _, kept := range chunks {
				union = append(union, kept[s]...)
			}
			slices.SortFunc(union, ranked.compare)
			union = union[:min(len(union), sizes[s])]
			slices.SortFunc(union, func(a, b ranked) int { return a.ord - b.ord })
			stratum.Items = make([]engine.Row, len(union))
			for j, r := range union {
				stratum.Items[j] = rows[r.ord]
			}
		}
		st.Put(stratum)
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// mix64 is base row ord's sampling priority under seed: the SplitMix64
// output for state seed at step ord+1, uniform over the 64-bit words.
func mix64(seed int64, ord int) uint64 {
	z := uint64(seed) + uint64(ord+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ranked is one candidate row: its priority and its base ordinal, which
// breaks priority ties so the order is total.
type ranked struct {
	prio uint64
	ord  int
}

func (a ranked) compare(b ranked) int {
	if c := cmp.Compare(a.prio, b.prio); c != 0 {
		return c
	}
	return a.ord - b.ord
}

// bottomK holds the smallest ranked rows offered so far as a max-heap,
// so the root is the one a smaller newcomer evicts.
type bottomK []ranked

// offer keeps r if it is among the k smallest offered.
func (h *bottomK) offer(r ranked, k int) {
	s := *h
	if len(s) < k {
		s = append(s, r)
		for i := len(s) - 1; i > 0; {
			p := (i - 1) / 2
			if s[p].compare(s[i]) > 0 {
				break
			}
			s[p], s[i] = s[i], s[p]
			i = p
		}
		*h = s
		return
	}
	if r.compare(s[0]) > 0 {
		return
	}
	s[0] = r
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(s) {
			return
		}
		if c+1 < len(s) && s[c].compare(s[c+1]) < 0 {
			c++
		}
		if s[i].compare(s[c]) > 0 {
			return
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
}

// scanChunks splits n rows into at most workers contiguous chunks (one
// when n is 0), runs fn on each concurrently, and returns the results in
// chunk order.
func scanChunks[T any](n, workers int, fn func(lo, hi int) T) []T {
	workers = max(1, min(workers, n))
	out := make([]T, workers)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = fn(n*w/workers, n*(w+1)/workers)
		}()
	}
	wg.Wait()
	return out
}
