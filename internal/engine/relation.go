package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns with case-insensitive name lookup.
type Schema struct {
	Cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique
// (case-insensitively).
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("engine: duplicate column %q", c.Name)
		}
		s.byName[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema but panics on error.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the ordinal of the named column, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Project returns a new schema containing the named columns, in order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", n)
		}
		cols = append(cols, s.Cols[i])
	}
	return NewSchema(cols...)
}

// Row is one tuple.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Relation is an in-memory table: a schema plus rows. Relations are safe
// for concurrent reads; writers must hold the catalog-level or caller
// lock. Mutating methods are guarded by an internal mutex so streaming
// maintenance (Section 6) can append while readers snapshot.
type Relation struct {
	Name   string
	Schema *Schema

	mu      sync.RWMutex
	rows    []Row
	version uint64 // bumped on every mutation; guards the batch cache
	batch   *Batch // lazily built columnar snapshot; nil until built or after a mutation
}

// NewRelation creates an empty relation.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Insert appends a row after checking arity. The row is stored as given
// (not copied); callers must not mutate it afterwards.
func (r *Relation) Insert(row Row) error {
	if len(row) != r.Schema.Len() {
		return fmt.Errorf("engine: %s: row arity %d, schema arity %d", r.Name, len(row), r.Schema.Len())
	}
	r.mu.Lock()
	r.rows = append(r.rows, row)
	r.invalidateBatchLocked()
	r.mu.Unlock()
	return nil
}

// InsertAll appends rows, failing on the first arity mismatch (rows
// before the mismatch stay inserted). The lock is taken once for the
// whole slice and capacity is grown up front.
func (r *Relation) InsertAll(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	arity := r.Schema.Len()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invalidateBatchLocked()
	if need := len(r.rows) + len(rows); cap(r.rows) < need {
		grown := make([]Row, len(r.rows), need)
		copy(grown, r.rows)
		r.rows = grown
	}
	for _, row := range rows {
		if len(row) != arity {
			return fmt.Errorf("engine: %s: row arity %d, schema arity %d", r.Name, len(row), arity)
		}
		r.rows = append(r.rows, row)
	}
	return nil
}

// NumRows returns the current row count.
func (r *Relation) NumRows() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.rows)
}

// Rows returns a snapshot slice of the rows. The slice header is copied;
// rows themselves are shared and must be treated as immutable.
func (r *Relation) Rows() []Row {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Row, len(r.rows))
	copy(out, r.rows)
	return out
}

// invalidateBatchLocked drops the cached columnar batch. Callers must
// hold r.mu for writing.
func (r *Relation) invalidateBatchLocked() {
	r.version++
	r.batch = nil
}

// Batch returns a columnar snapshot of the relation, building it lazily
// on first use and caching it until the next mutation. The returned
// batch is immutable and safe for concurrent use; it reflects the rows
// present at some point between the call and its return.
func (r *Relation) Batch() *Batch {
	r.mu.RLock()
	b := r.batch
	ver := r.version
	var rows []Row
	if b == nil {
		// Snapshot the slice header under the read lock: Update replaces
		// r.rows[i] in place, so building from the live slice outside the
		// lock would race.
		rows = make([]Row, len(r.rows))
		copy(rows, r.rows)
	}
	r.mu.RUnlock()
	if b != nil {
		return b
	}
	b = buildBatch(rows)
	r.mu.Lock()
	if r.version == ver {
		r.batch = b
	} else if r.batch != nil {
		// Another builder cached a batch for the same (newer) version.
		b = r.batch
	}
	r.mu.Unlock()
	return b
}

// Update replaces every row matching pred with transform(row) and
// returns the number of rows updated. Rows are replaced, never mutated
// in place, so concurrent readers holding Rows() snapshots keep a
// consistent view. transform must return a row of the same arity.
func (r *Relation) Update(pred func(Row) bool, transform func(Row) Row) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invalidateBatchLocked()
	updated := 0
	for i, row := range r.rows {
		if !pred(row) {
			continue
		}
		next := transform(row)
		if len(next) != r.Schema.Len() {
			return updated, fmt.Errorf("engine: %s: update arity %d, schema arity %d", r.Name, len(next), r.Schema.Len())
		}
		r.rows[i] = next
		updated++
	}
	return updated, nil
}

// Catalog names and stores relations, playing the role of the warehouse
// DBMS's data dictionary. Synopsis relations produced by the sampler are
// registered here alongside base relations (Section 2: "stored as
// regular relations in the DBMS").
type Catalog struct {
	mu   sync.RWMutex
	rels map[string]*Relation
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{rels: make(map[string]*Relation)}
}

// Register adds or replaces a relation under its name.
func (c *Catalog) Register(rel *Relation) {
	c.mu.Lock()
	c.rels[strings.ToLower(rel.Name)] = rel
	c.mu.Unlock()
}

// Lookup finds a relation by name (case-insensitive).
func (c *Catalog) Lookup(name string) (*Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rel, ok := c.rels[strings.ToLower(name)]
	return rel, ok
}

// Drop removes a relation; it is not an error if absent.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	delete(c.rels, strings.ToLower(name))
	c.mu.Unlock()
}

// Names returns the sorted names of all registered relations.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.rels))
	for _, rel := range c.rels {
		out = append(out, rel.Name)
	}
	sort.Strings(out)
	return out
}
