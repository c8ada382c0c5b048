// Package congress is a Go implementation of congressional samples for
// approximate answering of group-by queries (Acharya, Gibbons, Poosala;
// SIGMOD 2000), together with the complete substrate the technique runs
// on: an in-memory SQL engine, the Aqua-style approximate-query
// middleware, stratified estimators with error bounds, the four
// query-rewriting strategies of the paper's Section 5, and one-pass
// construction plus incremental maintenance of the samples.
//
// The central idea: a uniform sample of a warehouse table answers
// aggregate queries well overall, but group-by queries see terrible
// accuracy on small groups. Congressional samples allocate a fixed
// sample budget so that every group under every combination of grouping
// columns is well represented, by taking the per-group maximum of the
// optimal allocations for all 2^|G| groupings and scaling back to the
// budget.
//
// Quick start:
//
//	w := congress.Open()
//	tbl, _ := w.CreateTable("sales",
//		congress.Col("region", congress.String),
//		congress.Col("product", congress.String),
//		congress.Col("amount", congress.Float),
//	)
//	tbl.Insert(congress.Str("east"), congress.Str("pen"), congress.F(12.5))
//	...
//	w.BuildSynopsis(congress.SynopsisSpec{
//		Table: "sales", GroupBy: []string{"region", "product"}, Space: 10000,
//	})
//	res, _ := w.Approx(`select region, sum(amount) from sales group by region`)
//	fmt.Print(res)
package congress

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/approxdb/congress/internal/aqua"
	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/metrics"
	"github.com/approxdb/congress/internal/persist"
	"github.com/approxdb/congress/internal/rewrite"
)

// Strategy selects the sample-space allocation scheme of Section 4.
type Strategy = core.Strategy

// Allocation strategies.
const (
	// House samples uniformly: space proportional to group size.
	House = core.House
	// Senate gives every finest group equal space.
	Senate = core.Senate
	// BasicCongress takes the per-group max of House and Senate.
	BasicCongress = core.BasicCongress
	// Congress covers every grouping combination (the recommended
	// default).
	Congress = core.Congress
)

// RewriteStrategy selects the query-rewriting technique of Section 5.
type RewriteStrategy = rewrite.Strategy

// Rewriting strategies.
const (
	// Integrated stores a scale factor on each sample tuple.
	Integrated = rewrite.Integrated
	// NestedIntegrated scales once per group via a nested query.
	NestedIntegrated = rewrite.NestedIntegrated
	// Normalized joins a separate scale-factor relation on the grouping
	// columns.
	Normalized = rewrite.Normalized
	// KeyNormalized joins the scale-factor relation on a group id.
	KeyNormalized = rewrite.KeyNormalized
)

// Kind is a column type.
type Kind = engine.Kind

// Column kinds.
const (
	Int    = engine.KindInt
	Float  = engine.KindFloat
	String = engine.KindString
	Date   = engine.KindDate
	Bool   = engine.KindBool
)

// Value is a dynamically typed SQL value.
type Value = engine.Value

// Row is one tuple.
type Row = engine.Row

// Result is a query result.
type Result = engine.Result

// Value constructors.
var (
	// I builds an integer value.
	I = engine.NewInt
	// F builds a float value.
	F = engine.NewFloat
	// Str builds a string value.
	Str = engine.NewString
	// B builds a boolean value.
	B = engine.NewBool
	// D parses an ISO date (panics on malformed input).
	D = engine.MustParseDate
)

// Col describes a column.
func Col(name string, kind Kind) engine.Column {
	return engine.Column{Name: name, Kind: kind}
}

// Warehouse is an in-memory warehouse with approximate query answering:
// an engine catalog fronted by the Aqua middleware. OpenDir (or
// EnablePersistence) makes it durable: mutations are write-ahead
// logged and snapshotted to a data directory.
type Warehouse struct {
	cat *engine.Catalog
	aq  *aqua.Aqua

	// pmu guards the durability wiring: the base-table registry the
	// snapshot exporter walks and the persistence manager handle.
	pmu        sync.Mutex
	baseTables map[string]bool // lower-cased names of base relations
	mgr        *persist.Manager

	// pbar is the persistence-enable barrier: mutations hold it shared,
	// EnablePersistence holds it exclusively across the manager start.
	// Without it a mutation could land between Start's initial snapshot
	// export and the manager handle being published — in neither the
	// snapshot nor the WAL, silently lost on crash.
	pbar sync.RWMutex
}

// Open creates an empty warehouse with result caching enabled at the
// default sizing (DefaultCacheEntries entries, DefaultCacheBytes bytes);
// tune or disable it with ConfigureCache.
func Open() *Warehouse {
	cat := engine.NewCatalog()
	w := &Warehouse{cat: cat, aq: aqua.New(cat), baseTables: make(map[string]bool)}
	w.ConfigureCache(0, 0)
	return w
}

// Default result-cache sizing used by Open.
const (
	// DefaultCacheEntries is the default result-cache entry bound.
	DefaultCacheEntries = 4096
	// DefaultCacheBytes is the default result-cache byte bound (64 MiB).
	DefaultCacheBytes int64 = 64 << 20
)

// ConfigureCache re-sizes the warehouse's result cache. maxEntries: 0
// keeps the default bound, < 0 disables result caching entirely.
// maxBytes: 0 keeps the default bound, < 0 removes the byte bound.
// Reconfiguring replaces the cache, so previously cached answers are
// dropped. The parse cache is unaffected — it holds pure derivations
// of the query text and never needs invalidation.
func (w *Warehouse) ConfigureCache(maxEntries int, maxBytes int64) {
	entries := maxEntries
	switch {
	case entries == 0:
		entries = DefaultCacheEntries
	case entries < 0:
		entries = 0 // disables: aqua treats a non-positive bound as off
	}
	bytes := maxBytes
	switch {
	case bytes == 0:
		bytes = DefaultCacheBytes
	case bytes < 0:
		bytes = 0 // unlimited
	}
	w.aq.EnableResultCache(entries, bytes)
}

// CacheStatus reports how an answer was produced: from the result cache
// (CacheHit), by executing and storing (CacheMiss), or with the cache
// off or skipped (CacheBypass). Its String form ("hit", "miss",
// "bypass") is the X-Congress-Cache header value congressd emits.
type CacheStatus = aqua.CacheStatus

// Cache statuses.
const (
	CacheBypass = aqua.CacheBypass
	CacheMiss   = aqua.CacheMiss
	CacheHit    = aqua.CacheHit
)

// ApproxOptions tunes one ApproxQuery call.
type ApproxOptions struct {
	// Rewrite overrides the synopsis's default rewriting strategy when
	// UseRewrite is set.
	Rewrite    RewriteStrategy
	UseRewrite bool
	// NoCache answers from the sample directly, skipping the result
	// cache for this call (the answer is not stored either).
	NoCache bool
	// NoHybrid disables the hybrid exact-aggregate path for this call:
	// the estimate comes from the congressional sample alone even when
	// the synopsis's datacube prefixes cover the query. Useful for
	// benchmarking the pure-sample bound and for differential tests.
	NoHybrid bool
}

// Table is a handle to a base relation.
type Table struct {
	w   *Warehouse
	rel *engine.Relation
}

// CreateTable registers a new empty table. On a persistent warehouse
// the DDL is write-ahead logged.
func (w *Warehouse) CreateTable(name string, cols ...engine.Column) (*Table, error) {
	var tbl *Table
	err := w.logged(&persist.Record{
		Kind:  persist.RecCreateTable,
		Table: name,
		Cols:  append([]engine.Column(nil), cols...),
	}, func() error {
		schema, err := engine.NewSchema(cols...)
		if err != nil {
			return err
		}
		rel := engine.NewRelation(name, schema)
		w.cat.Register(rel)
		w.noteBaseTable(name)
		tbl = &Table{w: w, rel: rel}
		return nil
	})
	return tbl, err
}

// AttachRelation registers an existing engine relation (one produced by
// the tpcd generator or engine.ReadCSV) as a warehouse table, avoiding a
// row-by-row copy through CreateTable/Insert. On a persistent warehouse
// the attachment is write-ahead logged (schema plus rows), so WAL
// replay — and live replication followers tailing the log — see it
// immediately instead of one snapshot rotation late; a background
// snapshot is additionally requested so the log compacts soon after.
func (w *Warehouse) AttachRelation(rel *engine.Relation) (*Table, error) {
	err := w.logged(&persist.Record{
		Kind:  persist.RecAttachRelation,
		Table: rel.Name,
		Cols:  append([]engine.Column(nil), rel.Schema.Cols...),
		Rows:  rel.Rows(),
	}, func() error {
		w.cat.Register(rel)
		w.noteBaseTable(rel.Name)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if mgr := w.manager(); mgr != nil {
		mgr.RequestSnapshot()
	}
	return &Table{w: w, rel: rel}, nil
}

// Table returns a handle to an existing table. The error wraps
// ErrUnknownTable for errors.Is classification.
func (w *Warehouse) Table(name string) (*Table, error) {
	rel, ok := w.cat.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("congress: %w %q", ErrUnknownTable, name)
	}
	return &Table{w: w, rel: rel}, nil
}

// Insert appends one row. If the table has a synopsis, the row also
// flows to its incremental maintainer so the sample stays fresh without
// re-reading the table (call RefreshSynopsis to make maintained state
// visible to queries), and the synopsis's data epoch advances so cached
// answers are invalidated.
//
// Grouping-column values must not contain the EstimateKeySep unit
// separator (U+001F): composite group keys are joined with it, so a
// value containing it would silently merge or split groups. Such rows
// are rejected before touching the base relation.
func (t *Table) Insert(vals ...Value) error {
	row := Row(vals)
	return t.w.logged(&persist.Record{
		Kind:  persist.RecInsert,
		Table: t.rel.Name,
		Row:   row,
	}, func() error {
		return t.insertRow(row)
	})
}

// insertRow is the unlogged insert path: validation, the base relation
// append, and the maintainer feed. WAL replay calls it directly.
func (t *Table) insertRow(row Row) error {
	syn, hasSyn := t.w.aq.Synopsis(t.rel.Name)
	if hasSyn {
		for _, ci := range syn.Grouping().Columns() {
			if ci < len(row) && row[ci].K == engine.KindString &&
				strings.Contains(row[ci].S, EstimateKeySep) {
				return fmt.Errorf("%w: grouping value %q contains the reserved key separator U+001F",
					ErrBadQuery, row[ci].S)
			}
		}
	}
	if err := t.rel.Insert(row); err != nil { // arity mismatch
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if hasSyn {
		syn.Insert(row)
	}
	return nil
}

// NumRows returns the table's row count.
func (t *Table) NumRows() int { return t.rel.NumRows() }

// Columns returns a copy of the table's schema columns, in order.
func (t *Table) Columns() []engine.Column {
	return append([]engine.Column(nil), t.rel.Schema.Cols...)
}

// Name returns the table name.
func (t *Table) Name() string { return t.rel.Name }

// TableColumns returns a copy of the named table's schema columns; the
// error wraps ErrUnknownTable.
func (w *Warehouse) TableColumns(table string) ([]engine.Column, error) {
	t, err := w.Table(table)
	if err != nil {
		return nil, err
	}
	return t.Columns(), nil
}

// InsertRows appends rows to the named table one Table.Insert at a time
// (each row is validated, write-ahead logged and fed to the maintainer
// on its own) and returns how many were applied. It stops at the first
// failing row or when ctx ends; the rows before that stay inserted.
func (w *Warehouse) InsertRows(ctx context.Context, table string, rows []Row) (int, error) {
	t, err := w.Table(table)
	if err != nil {
		return 0, err
	}
	for i, row := range rows {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		if err := t.Insert(row...); err != nil {
			return i, err
		}
	}
	return len(rows), nil
}

// SynopsisSpec configures BuildSynopsis.
type SynopsisSpec struct {
	// Table is the base table to summarize.
	Table string
	// GroupBy is the grouping attribute set G the synopsis must serve.
	GroupBy []string
	// Space is the sample budget in tuples.
	Space int
	// Strategy is the allocation scheme (default Congress).
	Strategy Strategy
	// Rewrite is the strategy used by Approx (default Integrated).
	Rewrite RewriteStrategy
	// WithErrorBounds appends Aqua error columns to approximate answers.
	WithErrorBounds bool
	// VarianceColumn enables variance-aware allocation (the paper's
	// Section 8 extension): groups whose values in this column vary
	// more receive extra sample space via Neyman allocation.
	VarianceColumn string
	// TargetGroupings specializes the synopsis to a known query mix:
	// only the listed groupings (each a subset of GroupBy; include an
	// empty slice for the no-group-by query) compete for sample space,
	// instead of all 2^|G| combinations.
	TargetGroupings [][]string
	// Recency applies the Section 8 ageing bias: groups with newer
	// values in the named column (one of GroupBy, typically a date) get
	// geometrically more sample space. Decay in (0,1] is the per-step
	// multiplier into the past.
	Recency *Recency
	// Deprecated: BuildWorkers is ignored. A build always uses every
	// core, and the sample it draws does not depend on how many there
	// are.
	BuildWorkers int
	// Seed fixes sampling randomness: the sample is a function of the
	// table's rows, the spec and Seed (0 = 1).
	Seed int64
}

// DefaultBuildWorkers returns GOMAXPROCS.
//
// Deprecated: it serves only the ignored SynopsisSpec.BuildWorkers.
func DefaultBuildWorkers() int { return core.DefaultWorkers() }

// BuildSynopsis precomputes a biased sample of the table and registers
// the sample relations used to answer queries approximately. Existing
// Table handles start feeding the new synopsis's maintainer on their
// next Insert.
//
// Grouping-column values already in the table are validated against the
// EstimateKeySep contract: a value containing U+001F (possible if it was
// inserted before the synopsis existed, or arrived through CSV or
// generator loading) fails the build with ErrBadQuery rather than
// silently corrupting composite group keys.
func (w *Warehouse) BuildSynopsis(spec SynopsisSpec) error {
	cfg := aqua.Config{
		Table:            spec.Table,
		GroupCols:        spec.GroupBy,
		Strategy:         spec.Strategy,
		Space:            spec.Space,
		Rewrite:          spec.Rewrite,
		WithErrorColumns: spec.WithErrorBounds,
		VarianceColumn:   spec.VarianceColumn,
		TargetGroupings:  spec.TargetGroupings,
		Recency:          spec.Recency,
		Seed:             spec.Seed,
	}
	return w.logged(&persist.Record{
		Kind:     persist.RecBuildSynopsis,
		Table:    spec.Table,
		Synopsis: &cfg,
	}, func() error {
		_, err := w.aq.CreateSynopsis(cfg)
		return err
	})
}

// Recency configures the ageing bias of SynopsisSpec.
type Recency = aqua.Recency

// DimJoin is one fact-to-dimension foreign-key edge of a star schema.
type DimJoin = aqua.DimJoin

// JoinSpec describes a star-schema join for BuildJoinSynopsis.
type JoinSpec struct {
	// Name registers the joined (wide) relation under this name; query
	// it like any table.
	Name string
	// Fact is the central fact table.
	Fact string
	// Dims are the dimension joins.
	Dims []DimJoin
}

// BuildJoinSynopsis materializes the star join Fact ⋈ Dims as a single
// wide relation (valid because foreign-key joins preserve fact-table
// cardinality — the join-synopsis observation of the paper's Section 2)
// and builds a synopsis over it. spec.Table is ignored; the synopsis
// covers join.Name, and GroupBy columns may come from any joined table.
// On a persistent warehouse the build is write-ahead logged (the join is
// deterministic given the joined tables' replay-position contents, so
// replay reproduces it), and a snapshot is additionally forced so the
// materialized relation compacts out of the log immediately.
func (w *Warehouse) BuildJoinSynopsis(join JoinSpec, spec SynopsisSpec) error {
	js := aqua.JoinSpec{
		Name: join.Name,
		Fact: join.Fact,
		Dims: join.Dims,
	}
	cfg := aqua.Config{
		GroupCols:        spec.GroupBy,
		Strategy:         spec.Strategy,
		Space:            spec.Space,
		Rewrite:          spec.Rewrite,
		WithErrorColumns: spec.WithErrorBounds,
		VarianceColumn:   spec.VarianceColumn,
		TargetGroupings:  spec.TargetGroupings,
		Recency:          spec.Recency,
		Seed:             spec.Seed,
	}
	err := w.logged(&persist.Record{
		Kind:     persist.RecBuildJoinSynopsis,
		Table:    join.Name,
		Join:     &js,
		Synopsis: &cfg,
	}, func() error {
		if _, err := w.aq.CreateJoinSynopsis(js, cfg); err != nil {
			return err
		}
		w.noteBaseTable(join.Name)
		return nil
	})
	if err != nil {
		return err
	}
	if mgr := w.manager(); mgr != nil {
		return mgr.Snapshot()
	}
	return nil
}

// RefreshSynopsis re-materializes a table's sample relations from its
// incremental maintainer.
func (w *Warehouse) RefreshSynopsis(table string) error {
	return w.logged(&persist.Record{
		Kind:  persist.RecRefreshSynopsis,
		Table: table,
	}, func() error {
		return w.aq.Refresh(table)
	})
}

// AllocationRow is one line of the Figure 5-style allocation table a
// synopsis reports.
type AllocationRow = aqua.AllocationRow

// AllocationTable reports how a synopsis's space budget was divided
// among the finest groups, sorted by descending allocation. A table
// without a synopsis wraps ErrNoSynopsis.
func (w *Warehouse) AllocationTable(table string) ([]AllocationRow, error) {
	syn, ok := w.aq.Synopsis(table)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoSynopsis, table)
	}
	return syn.AllocationTable(), nil
}

// Query executes SQL exactly against the base tables.
func (w *Warehouse) Query(sql string) (*Result, error) {
	return engine.ExecuteSQL(w.cat, sql)
}

// QueryCtx executes SQL exactly under a context: parse errors wrap
// ErrBadQuery, and the deadline or cancellation is observed inside the
// engine's row-scan loops so a large scan stops promptly.
func (w *Warehouse) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	return w.aq.ExactCtx(ctx, sql)
}

// Approx answers an aggregate query approximately from the table's
// synopsis using its configured rewrite strategy.
func (w *Warehouse) Approx(sql string) (*Result, error) {
	return w.aq.Answer(sql)
}

// ApproxQuery is the full cached read path: the query is parsed through
// the parse cache, rewritten, and answered through the result cache
// (unless disabled or opts.NoCache), reporting whether the answer was a
// cache hit. Concurrent identical misses share one execution. The
// returned Result may be shared with other callers and must be treated
// as read-only.
func (w *Warehouse) ApproxQuery(ctx context.Context, sql string, opts ApproxOptions) (*Result, CacheStatus, error) {
	return w.aq.AnswerQuery(ctx, sql, aqua.QueryOptions{
		Strategy:    opts.Rewrite,
		UseStrategy: opts.UseRewrite,
		NoCache:     opts.NoCache,
	})
}

// Explain returns the rewritten SQL a strategy would execute, without
// running it.
func (w *Warehouse) Explain(sql string, strat RewriteStrategy) (string, error) {
	return w.aq.RewriteOnly(sql, strat)
}

// Estimate answers a query directly from a table's stratified sample
// without SQL, returning per-group estimates with confidence bounds.
// grouping selects the output grouping columns (a subset of the
// synopsis's GroupBy; empty for one group keyed ""); agg and aggCol
// pick the operator and the aggregated column; confidence 0 means 90%.
// Multi-column group keys join the rendered values with EstimateKeySep;
// split them back with SplitEstimateKey. It is EstimateQueryOpts with a
// background context and default options.
func (w *Warehouse) Estimate(table string, grouping []string, agg estimate.Aggregate, aggCol string, confidence float64) ([]estimate.GroupEstimate, error) {
	ests, _, err := w.EstimateQueryOpts(context.Background(), table, grouping, agg, aggCol, confidence, ApproxOptions{})
	return ests, err
}

// EstimateQueryOpts is Estimate under a context and through the result
// cache: the deadline or cancellation is observed inside the sample
// scan, and estimate sets are memoized under the synopsis's
// data epoch exactly like SQL answers, so repeated dashboards hitting
// the same (table, grouping, aggregate) tuple skip the sample scan until
// the data changes. opts.NoCache skips the result cache and
// opts.NoHybrid forces the pure-sample estimator even when the
// synopsis's exact datacube covers the request. Hybrid and pure-sample
// answers cache under distinct keys, so toggling NoHybrid never serves
// the other mode's result. Validation errors wrap ErrBadQuery and a
// missing synopsis wraps ErrNoSynopsis, for errors.Is classification by
// callers such as the HTTP server. The returned slice may be shared with
// concurrent callers and must be treated as read-only.
func (w *Warehouse) EstimateQueryOpts(ctx context.Context, table string, grouping []string, agg estimate.Aggregate, aggCol string, confidence float64, opts ApproxOptions) ([]estimate.GroupEstimate, CacheStatus, error) {
	// The one estimator: the partials scan (or exact cube lookup), then
	// the confidence interval taken once — the same two steps a
	// coordinator runs with a merge in between.
	uncached := func() ([]estimate.GroupEstimate, error) {
		parts, err := w.EstimatePartialsOpts(ctx, table, grouping, aggCol, PartialsOptions{NoHybrid: opts.NoHybrid})
		if err != nil {
			return nil, err
		}
		return estimate.Finalize(parts, agg, confidence)
	}
	rc := w.aq.ResultCache()
	if rc == nil || opts.NoCache {
		ests, err := uncached()
		return ests, CacheBypass, err
	}
	syn, ok := w.aq.Synopsis(table)
	if !ok {
		return nil, CacheBypass, fmt.Errorf("%w %q", ErrNoSynopsis, table)
	}
	// Load the epoch before the sample scan (same ordering contract as
	// the SQL result cache: fresher data under an old key is harmless,
	// stale data under a new key is impossible).
	key := fmt.Sprintf("e\x00%d\x00%d\x00%s\x00%d\x00%s\x00%g\x00%t",
		syn.ID(), syn.Epoch(), joinParts(grouping), int(agg), strings.ToLower(aggCol), confidence, opts.NoHybrid)
	v, hit, err := rc.Do(ctx, key, func() (any, int64, error) {
		ests, err := uncached()
		if err != nil {
			return nil, 0, err
		}
		cost := int64(64)
		for _, e := range ests {
			cost += int64(64 + len(e.Key))
		}
		return ests, cost, nil
	})
	if err != nil {
		return nil, CacheMiss, err
	}
	status := CacheMiss
	if hit {
		status = CacheHit
	}
	return v.([]estimate.GroupEstimate), status, nil
}

// estimatePlan resolves a direct-estimation request against the
// warehouse: the table's synopsis plus the row ordinals of the grouping
// columns and the aggregate column — the one request shape both
// Synopsis.ExactPartials and estimate.PartialsCtx take. Every grouping
// column must be in the synopsis grouping G: a sampled stratum carries
// one value per G column, and nothing for any other column. An empty
// grouping is the no-group-by query: one group, keyed "".
func (w *Warehouse) estimatePlan(table string, grouping []string, aggCol string) (*aqua.Synopsis, []int, int, error) {
	syn, ok := w.aq.Synopsis(table)
	if !ok {
		return nil, nil, -1, fmt.Errorf("%w %q", ErrNoSynopsis, table)
	}
	rel, ok := w.cat.Lookup(table)
	if !ok {
		return nil, nil, -1, fmt.Errorf("congress: synopsis for %q exists but its base relation is gone from the catalog", table)
	}
	g := syn.Grouping().Columns()
	cols := make([]int, len(grouping))
	for i, name := range grouping {
		if cols[i] = rel.Schema.Index(name); cols[i] < 0 {
			return nil, nil, -1, fmt.Errorf("%w: unknown grouping column %q", ErrBadQuery, name)
		}
		if !slices.Contains(g, cols[i]) {
			return nil, nil, -1, fmt.Errorf("%w: grouping column %q is not in the synopsis grouping %v", ErrBadQuery, name, syn.GroupCols())
		}
	}
	ci := rel.Schema.Index(aggCol)
	if ci < 0 {
		return nil, nil, -1, fmt.Errorf("%w: unknown aggregate column %q", ErrBadQuery, aggCol)
	}
	return syn, cols, ci, nil
}

// GroupPartial re-exports the mergeable per-group estimation state a
// scatter-gather coordinator moves between shards; see
// EstimatePartialsOpts and estimate.MergePartials.
type GroupPartial = estimate.GroupPartial

// PartialsOptions tunes one EstimatePartialsOpts call.
type PartialsOptions struct {
	// NoHybrid forces the partials to come from the sample scan even
	// when the shard's exact datacube covers the request (see
	// ApproxOptions.NoHybrid).
	NoHybrid bool
}

// EstimatePartialsOpts runs the scan half of an estimate and returns the
// per-group mergeable partials instead of finished estimates. A
// Coordinator calls this on every shard (over /v1/estimate/partials),
// merges with estimate.MergePartials, and takes the confidence interval
// exactly once with estimate.Finalize — which is why sharded estimates
// match single-warehouse ones over the same strata. Partials are
// aggregate- and confidence-independent. Error classification matches
// EstimateQueryOpts (ErrBadQuery, ErrNoSynopsis).
//
// With hybrid answering enabled (the default), a shard whose exact
// datacube covers the request returns exact partials — ExactSum/
// ExactCount populated, zero sampled mass — and skips its sample scan
// (every group then finalizes to a zero-width interval); MergePartials
// composes exact shards with sampled shards so only the residual
// (uncovered) mass contributes interval width.
func (w *Warehouse) EstimatePartialsOpts(ctx context.Context, table string, grouping []string, aggCol string, opts PartialsOptions) ([]GroupPartial, error) {
	start := time.Now()
	syn, cols, ci, err := w.estimatePlan(table, grouping, aggCol)
	if err != nil {
		return nil, err
	}
	if !opts.NoHybrid {
		if parts, ok := syn.ExactPartials(cols, ci); ok {
			w.aq.Telemetry().HybridExact()
			w.aq.Telemetry().ObserveEstimate(time.Since(start))
			return parts, nil
		}
		w.aq.Telemetry().HybridFallback()
	}
	parts, err := estimate.PartialsCtx(ctx, syn.Strata(), cols, ci)
	if err == nil {
		// Each scatter-gather leg counts as one estimate scan on its
		// shard, so the merged Metrics() reflect fan-out work.
		w.aq.Telemetry().ObserveEstimate(time.Since(start))
	}
	return parts, err
}

// EstimateKeySep separates the rendered grouping values inside a
// multi-column Estimate group key. It is the same unit separator the
// engine's composite group keys use (datacube.KeySep), which cannot
// occur in rendered values' natural text the way "/" can — so keys like
// ("a/b","c") and ("a","b/c") stay distinct.
//
// The separator is a reserved byte: grouping-column values containing
// U+001F are rejected by Table.Insert once a synopsis exists, and
// BuildSynopsis re-validates every existing row (covering rows inserted
// before the synopsis, and CSV or generator loads that bypass Insert),
// because a key built from such a value would be indistinguishable from
// a key over different values.
// joinParts and SplitEstimateKey round-trip under that contract,
// including the empty grouping (T = ∅, the House stratum), whose key is
// the empty string and splits back to zero values.
const EstimateKeySep = datacube.KeySep

// joinParts joins display values into an Estimate group key.
func joinParts(parts []string) string {
	return strings.Join(parts, EstimateKeySep)
}

// SplitEstimateKey splits a multi-column Estimate group key back into
// the rendered per-column values. The empty key — produced by the empty
// grouping — splits to an empty, non-nil slice, so len(SplitEstimateKey(
// joinParts(parts))) == len(parts) holds for every valid parts.
func SplitEstimateKey(key string) []string {
	if key == "" {
		return []string{}
	}
	return strings.Split(key, EstimateKeySep)
}

// Aggregate re-exports the direct-estimation aggregate selector.
type Aggregate = estimate.Aggregate

// GroupEstimate re-exports the direct-estimation result row.
type GroupEstimate = estimate.GroupEstimate

// Direct-estimation aggregates.
const (
	Sum   = estimate.Sum
	Count = estimate.Count
	Avg   = estimate.Avg
)

// MetricsSnapshot is a point-in-time reading of the warehouse's
// operational counters; see Warehouse.Metrics.
type MetricsSnapshot = metrics.TelemetrySnapshot

// Metrics reports the warehouse's operational counters: rows scanned by
// synopsis construction, strata materialized, build/refresh/answer/
// estimate counts and latencies, and the incremental-maintainer feed
// depth. Safe to call concurrently with any other operation.
func (w *Warehouse) Metrics() MetricsSnapshot {
	return w.aq.Telemetry().Snapshot()
}

// Typed sentinel errors, re-exported from the aqua middleware so callers
// of the public API can classify failures with errors.Is: ErrBadQuery is
// a malformed or unsupported query (a client error), ErrNoSynopsis and
// ErrUnknownTable are missing-resource errors.
var (
	ErrBadQuery     = aqua.ErrBadQuery
	ErrNoSynopsis   = aqua.ErrNoSynopsis
	ErrUnknownTable = aqua.ErrUnknownTable
)

// SynopsisInfo summarizes one registered synopsis for listings (the
// congressd /v1/synopses endpoint, diagnostics).
type SynopsisInfo struct {
	// Table is the base relation the synopsis covers.
	Table string
	// GroupBy is the grouping attribute set G.
	GroupBy []string
	// Strategy names the allocation strategy.
	Strategy string
	// Space is the configured budget X in tuples.
	Space int
	// SampleSize is the number of tuples currently materialized.
	SampleSize int
	// Strata is the number of finest groups in the sample.
	Strata int
	// PendingInserts counts maintainer inserts not yet surfaced by a
	// refresh.
	PendingInserts int64
	// Shards is the number of shards holding a partition of this synopsis
	// (0 on a Warehouse; a Coordinator counts the shards that list it).
	Shards int
}

// Synopses lists every registered synopsis, sorted by table name so the
// output is deterministic.
func (w *Warehouse) Synopses() []SynopsisInfo {
	syns := w.aq.Synopses()
	out := make([]SynopsisInfo, 0, len(syns))
	for _, s := range syns {
		ranges := s.Strata().Ranges()
		size := 0
		if len(ranges) > 0 {
			size = ranges[len(ranges)-1].Hi
		}
		out = append(out, SynopsisInfo{
			Table:          s.Table(),
			GroupBy:        s.GroupCols(),
			Strategy:       s.Strategy().String(),
			Space:          s.Space(),
			SampleSize:     size,
			Strata:         len(ranges),
			PendingInserts: s.Pending(),
		})
	}
	return out
}

// ParseStrategy resolves an allocation-strategy name
// (house|senate|basic|congress, case-insensitive) for CLI flags and API
// requests.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "house":
		return House, nil
	case "senate":
		return Senate, nil
	case "basic", "basiccongress", "basic-congress":
		return BasicCongress, nil
	case "congress", "":
		return Congress, nil
	default:
		return 0, fmt.Errorf("%w: unknown allocation strategy %q", ErrBadQuery, s)
	}
}

// ParseRewriteStrategy resolves a rewrite-strategy name
// (integrated|nested|normalized|keynormalized, case-insensitive) for CLI
// flags and API requests.
func ParseRewriteStrategy(s string) (RewriteStrategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "integrated", "":
		return Integrated, nil
	case "nested", "nestedintegrated", "nested-integrated":
		return NestedIntegrated, nil
	case "normalized":
		return Normalized, nil
	case "keynormalized", "key-normalized":
		return KeyNormalized, nil
	default:
		return 0, fmt.Errorf("%w: unknown rewrite strategy %q", ErrBadQuery, s)
	}
}

// NewRand builds a deterministic random source, convenience for
// examples and tools.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
