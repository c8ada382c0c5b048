package engine

// Columnar batch representation. A Batch is an immutable column-major
// snapshot of a relation: each column is decoded into a typed vector
// (int64 lane, float64 lane, or a dictionary plus codes for strings)
// with NULLs tracked in a per-column bitmap. Batches feed the
// vectorized executor (vec_exec.go) and, through FloatLane, the estimate
// package's scan of a synopsis's one sample relation, whose batch is
// built when the sample is published; the row engine never sees them.
//
// Layout invariants:
//   - A column has one uniform non-null Kind, recorded in colData.kind.
//     Columns where two different non-null kinds appear are flagged
//     mixed and the vectorized path declines queries touching them.
//   - Numeric columns always carry the floats lane (the AsFloat view),
//     so kernels that work in float space never re-dispatch on kind.
//     Int/Date/Bool columns additionally carry the raw int64 lane.
//   - String columns are dictionary-encoded: dict holds the distinct
//     values in first-appearance order, codes[i] indexes dict. Rows that
//     are NULL have code 0; consult the null bitmap first.
//   - The bitmap is nil when the column has no NULLs, letting kernels
//     skip null checks entirely on dense columns.

const (
	// vecChunk is the number of rows a vectorized kernel processes per
	// invocation. Context polling, selection-vector building, and
	// scratch buffers are all amortized over this many rows.
	vecChunk = 4096
)

// nullBitmap marks NULL positions: bit i set means row i is NULL.
type nullBitmap []uint64

func newNullBitmap(n int) nullBitmap { return make(nullBitmap, (n+63)/64) }

func (nb nullBitmap) set(i int) { nb[i>>6] |= 1 << (uint(i) & 63) }

func (nb nullBitmap) get(i int) bool {
	return nb != nil && nb[i>>6]&(1<<(uint(i)&63)) != 0
}

// colData is one column of a Batch.
type colData struct {
	kind  Kind // uniform non-null kind; KindNull if the column is all-NULL or empty
	mixed bool // heterogeneous non-null kinds observed; not vectorizable

	nulls nullBitmap // nil when the column has no NULLs

	ints   []int64   // KindInt, KindDate, KindBool: the raw I field
	floats []float64 // all numeric kinds: the AsFloat view
	dict   []string  // KindString: distinct values, first-appearance order
	codes  []int32   // KindString: per-row dictionary codes

	// dictNUL is set when some dictionary entry contains a NUL byte.
	// The row engine's composite group keys concatenate raw strings, so
	// NUL-bearing values could make the fixed-width vectorized key
	// partition rows differently; grouping on such a column declines.
	dictNUL bool
}

// valueAt rematerializes the boxed Value at row i.
func (c *colData) valueAt(i int) Value {
	if c.nulls.get(i) {
		return Null
	}
	switch c.kind {
	case KindInt:
		return Value{K: KindInt, I: c.ints[i]}
	case KindDate:
		return Value{K: KindDate, I: c.ints[i]}
	case KindBool:
		return Value{K: KindBool, I: c.ints[i]}
	case KindFloat:
		return Value{K: KindFloat, F: c.floats[i]}
	case KindString:
		return Value{K: KindString, S: c.dict[c.codes[i]]}
	default:
		return Null
	}
}

// fillNulls expands the bitmap for rows [lo,hi) into dst (len hi-lo).
// Returns nil when the column has no NULLs at all.
func (c *colData) fillNulls(lo, hi int, dst []bool) []bool {
	if c.nulls == nil {
		return nil
	}
	dst = dst[:hi-lo]
	for i := range dst {
		dst[i] = c.nulls.get(lo + i)
	}
	return dst
}

// Batch is an immutable columnar snapshot of a relation's rows. The
// original row slice is retained so per-group representative rows and
// declined columns can be served without rematerialization.
type Batch struct {
	n      int
	rows   []Row
	cols   []colData
	ragged bool // some row's arity differs from the first row's; not vectorizable
}

// NumRows returns the number of rows in the batch.
func (b *Batch) NumRows() int { return b.n }

// Rows returns the row snapshot the batch was built from. Shared, not
// copied; callers must treat it as immutable.
func (b *Batch) Rows() []Row { return b.rows }

// buildBatch decodes a row snapshot into columnar form. Two passes: the
// first fixes each column's kind (or flags it mixed), the second fills
// the typed lanes.
func buildBatch(rows []Row) *Batch {
	b := &Batch{n: len(rows), rows: rows}
	if len(rows) == 0 {
		return b
	}
	width := len(rows[0])
	b.cols = make([]colData, width)
	for _, r := range rows {
		if len(r) != width {
			b.ragged = true
			return b
		}
		for ci := range r {
			k := r[ci].K
			if k == KindNull {
				continue
			}
			c := &b.cols[ci]
			switch {
			case c.kind == KindNull:
				c.kind = k
			case c.kind != k:
				c.mixed = true
			}
		}
	}
	for ci := range b.cols {
		b.fillColumn(ci)
	}
	return b
}

func (b *Batch) fillColumn(ci int) {
	c := &b.cols[ci]
	if c.mixed || c.kind == KindNull {
		// Mixed columns are served from b.rows; all-NULL columns need
		// only the bitmap.
		if c.kind == KindNull && !c.mixed && b.n > 0 {
			c.nulls = newNullBitmap(b.n)
			for i := 0; i < b.n; i++ {
				c.nulls.set(i)
			}
		}
		return
	}
	switch c.kind {
	case KindInt, KindDate, KindBool:
		c.ints = make([]int64, b.n)
		c.floats = make([]float64, b.n)
		for i, r := range b.rows {
			v := r[ci]
			if v.K == KindNull {
				if c.nulls == nil {
					c.nulls = newNullBitmap(b.n)
				}
				c.nulls.set(i)
				continue
			}
			c.ints[i] = v.I
			c.floats[i] = float64(v.I)
		}
	case KindFloat:
		c.floats = make([]float64, b.n)
		for i, r := range b.rows {
			v := r[ci]
			if v.K == KindNull {
				if c.nulls == nil {
					c.nulls = newNullBitmap(b.n)
				}
				c.nulls.set(i)
				continue
			}
			c.floats[i] = v.F
		}
	case KindString:
		c.codes = make([]int32, b.n)
		lookup := make(map[string]int32)
		for i, r := range b.rows {
			v := r[ci]
			if v.K == KindNull {
				if c.nulls == nil {
					c.nulls = newNullBitmap(b.n)
				}
				c.nulls.set(i)
				continue
			}
			code, ok := lookup[v.S]
			if !ok {
				code = int32(len(c.dict))
				lookup[v.S] = code
				c.dict = append(c.dict, v.S)
				if !c.dictNUL {
					for j := 0; j < len(v.S); j++ {
						if v.S[j] == 0 {
							c.dictNUL = true
							break
						}
					}
				}
			}
			c.codes[i] = code
		}
	}
}

// FloatLane is one column of a Batch as Value.AsFloat sees it.
type FloatLane struct {
	vals    []float64
	invalid nullBitmap // bit i set: AsFloat reports not-ok for row i; nil when no row is
}

// At returns row i's AsFloat value and ok flag.
func (l FloatLane) At(i int) (float64, bool) { return l.vals[i], !l.invalid.get(i) }

// FloatLane returns column col as Value.AsFloat sees it: At(i) is
// rows[i][col].AsFloat(), not-ok exactly for a NULL or non-numeric
// value. A numeric column shares the batch's floats lane and null
// bitmap; a mixed, string or all-NULL column is gathered from the rows
// on every call. This is the lane the estimate package's scan reads.
func (b *Batch) FloatLane(col int) FloatLane {
	if !b.ragged && col < len(b.cols) {
		if c := &b.cols[col]; !c.mixed && c.kind.numeric() {
			return FloatLane{vals: c.floats, invalid: c.nulls}
		}
	}
	l := FloatLane{vals: make([]float64, b.n), invalid: newNullBitmap(b.n)}
	for i, r := range b.rows {
		f, ok := r[col].AsFloat()
		l.vals[i] = f
		if !ok {
			l.invalid.set(i)
		}
	}
	return l
}
