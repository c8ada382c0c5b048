package congress

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/metrics"
	"github.com/approxdb/congress/internal/shard"
)

// This file is the one coordinator: routing by the finest grouping key,
// batch insert, scatter partials → MergePartials → Finalize, refresh
// fan-out and the merged synopsis/allocation/metrics listings, written
// once over ShardBackend legs. ShardedWarehouse is this core over K
// in-process warehouses (sharded.go); Coordinator is the same core over
// K congressd processes reached by HTTP (distshard.go). With finest-key
// routing every stratum lives whole on one leg, so the merged answer is
// numerically identical to a single warehouse over the same strata —
// the differential tests pin single ≡ sharded ≡ distributed to 1e-9.

// ShardBackend is one leg of the coordinator core: a shard that holds a
// partition of every table and the synopsis over it. In-process shard
// warehouses (via localShard) and RemoteShard both satisfy it, which is
// why the core cannot tell them apart. A leg that holds no synopsis for
// a table (it was empty at build time) reports ErrNoSynopsis from
// EstimatePartials, RefreshSynopsis and AllocationTable; the core skips
// such legs and reports ErrNoSynopsis itself only when every leg does.
type ShardBackend interface {
	EstimatePartials(ctx context.Context, table string, grouping []string, aggCol string, opts PartialsOptions) ([]GroupPartial, error)
	// InsertRows appends rows in order and returns how many were applied;
	// on error the rows before the failing one stay applied.
	InsertRows(ctx context.Context, table string, rows []Row) (int, error)
	RefreshSynopsis(ctx context.Context, table string) error
	Synopses(ctx context.Context) ([]SynopsisInfo, error)
	AllocationTable(ctx context.Context, table string) ([]AllocationRow, error)
}

// localShard adapts an in-process *Warehouse to ShardBackend.
type localShard struct{ w *Warehouse }

func (s localShard) EstimatePartials(ctx context.Context, table string, grouping []string, aggCol string, opts PartialsOptions) ([]GroupPartial, error) {
	return s.w.EstimatePartialsOpts(ctx, table, grouping, aggCol, opts)
}

func (s localShard) InsertRows(ctx context.Context, table string, rows []Row) (int, error) {
	return s.w.InsertRows(ctx, table, rows)
}

func (s localShard) RefreshSynopsis(_ context.Context, table string) error {
	return s.w.RefreshSynopsis(table)
}

func (s localShard) Synopses(context.Context) ([]SynopsisInfo, error) {
	return s.w.Synopses(), nil
}

func (s localShard) AllocationTable(_ context.Context, table string) ([]AllocationRow, error) {
	return s.w.AllocationTable(table)
}

// shardCore is the coordinator state shared by ShardedWarehouse and
// Coordinator, which embed it: the legs, the router that assigns keys to
// them, the per-leg telemetry, and the registry of routed tables.
type shardCore struct {
	router    *shard.Router
	tel       *shard.Telemetry
	telPrefix string             // /metrics prefix of tel
	mtel      *metrics.Telemetry // coordinator-level engine counters (hybrid composition)
	legs      []ShardBackend

	mu     sync.RWMutex
	tables map[string]*ShardedTable // lower-cased name → handle
}

// newShardCore builds the core for n shards (at least 1); the caller
// fills in legs[0..n-1] before first use.
func newShardCore(n int, telPrefix string) (*shardCore, error) {
	router, err := shard.NewRouter(n)
	if err != nil {
		return nil, fmt.Errorf("congress: %w", err)
	}
	return &shardCore{
		router:    router,
		tel:       shard.NewTelemetry(n),
		telPrefix: telPrefix,
		mtel:      metrics.NewTelemetry(),
		legs:      make([]ShardBackend, n),
		tables:    make(map[string]*ShardedTable),
	}, nil
}

// NumShards returns the configured shard count.
func (c *shardCore) NumShards() int { return len(c.legs) }

// ShardTelemetry returns the coordinator's per-shard counters.
func (c *shardCore) ShardTelemetry() *shard.Telemetry { return c.tel }

// RenderShardMetrics writes the per-shard counters in /metrics form:
// congress_shard_* for in-process shards, congress_distshard_* for a
// Coordinator.
func (c *shardCore) RenderShardMetrics(sb *strings.Builder) { c.tel.RenderAs(sb, c.telPrefix) }

// ShardedTable is a handle to a table partitioned across the shards:
// its schema and the routing grouping resolved against it.
type ShardedTable struct {
	c    *shardCore
	name string
	cols []engine.Column
	g    *core.Grouping
}

// newTable resolves a table's routing key against its schema. routeBy
// must name at least one column: the finest grouping attributes the
// table's synopsis is built over, so every stratum has one home shard.
func (c *shardCore) newTable(name string, cols []engine.Column, routeBy []string) (*ShardedTable, error) {
	schema, err := engine.NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("%w: table %q: %v", ErrBadQuery, name, err)
	}
	g, err := core.NewGrouping(schema, routeBy)
	if err != nil {
		return nil, fmt.Errorf("%w: table %q routing key: %v", ErrBadQuery, name, err)
	}
	if len(g.Columns()) == 0 {
		return nil, fmt.Errorf("%w: sharded table %q needs at least one routing column", ErrBadQuery, name)
	}
	return &ShardedTable{c: c, name: name, cols: append([]engine.Column(nil), cols...), g: g}, nil
}

// setTables replaces the registry (Coordinator.Discover re-reads it
// whole); register adds one table.
func (c *shardCore) setTables(tables map[string]*ShardedTable) {
	c.mu.Lock()
	c.tables = tables
	c.mu.Unlock()
}

func (c *shardCore) register(t *ShardedTable) {
	c.mu.Lock()
	c.tables[strings.ToLower(t.name)] = t
	c.mu.Unlock()
}

// Table returns the handle to a routed table. The error wraps
// ErrUnknownTable for errors.Is classification.
func (c *shardCore) Table(name string) (*ShardedTable, error) {
	c.mu.RLock()
	t := c.tables[strings.ToLower(name)]
	c.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("congress: %w %q", ErrUnknownTable, name)
	}
	return t, nil
}

// TableColumns returns a copy of a routed table's schema columns.
func (c *shardCore) TableColumns(table string) ([]engine.Column, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	return t.Columns(), nil
}

// Columns returns a copy of the table's schema columns, in order.
func (t *ShardedTable) Columns() []engine.Column { return append([]engine.Column(nil), t.cols...) }

// Name returns the table name.
func (t *ShardedTable) Name() string { return t.name }

// RouteOf reports which shard a row's routing key maps to, for tests
// and diagnostics.
func (t *ShardedTable) RouteOf(row Row) int { return t.c.router.Route(t.g.Key(row)) }

// Insert routes one row to its home shard by the routing key and
// appends it there; the shard's synopsis maintainer (if any) is fed as
// on an unsharded warehouse.
func (t *ShardedTable) Insert(vals ...Value) error {
	_, err := t.InsertBatch(context.Background(), []Row{vals})
	return err
}

// InsertBatch routes a batch of rows, grouping by home shard and
// issuing one insert per shard in parallel. Every row's width is checked
// against the schema before any row is routed (the routing key reads
// columns by ordinal). Returns the number of rows acknowledged; on a
// failed leg the rows of *other* shards may still have been applied
// (per-shard inserts are independent), which the returned count
// reflects.
func (t *ShardedTable) InsertBatch(ctx context.Context, rows []Row) (int, error) {
	for _, row := range rows {
		if len(row) != len(t.cols) {
			return 0, fmt.Errorf("%w: row has %d values, table %q has %d columns",
				ErrBadQuery, len(row), t.name, len(t.cols))
		}
	}
	c := t.c
	insert := func(ctx context.Context, i int, rows []Row) (int, error) {
		n, err := c.legs[i].InsertRows(ctx, t.name, rows)
		c.tel.AddInserts(i, int64(n))
		if err != nil {
			c.tel.FanoutError(i)
		}
		return n, err
	}
	if len(rows) == 1 { // the single-row path needs no fan-out goroutines
		return insert(ctx, t.RouteOf(rows[0]), rows)
	}
	parts := make([][]Row, len(c.legs))
	for _, row := range rows {
		i := t.RouteOf(row)
		parts[i] = append(parts[i], row)
	}
	var acked atomic.Int64
	_, err := shard.Fanout(ctx, len(c.legs), func(ctx context.Context, i int) (struct{}, error) {
		if len(parts[i]) == 0 {
			return struct{}{}, nil
		}
		n, err := insert(ctx, i, parts[i])
		acked.Add(int64(n))
		return struct{}{}, err
	})
	return int(acked.Load()), err
}

// InsertRows is InsertBatch by table name.
func (c *shardCore) InsertRows(ctx context.Context, table string, rows []Row) (int, error) {
	t, err := c.Table(table)
	if err != nil {
		return 0, err
	}
	return t.InsertBatch(ctx, rows)
}

// skipEmpty runs fn on every leg in parallel and collects the results
// of the legs that hold a synopsis for table; legs reporting
// ErrNoSynopsis are skipped, and when every leg does the table has no
// synopsis at all — the error the caller gets. The first other failure
// cancels the sibling legs and fails the call.
func skipEmpty[T any](ctx context.Context, c *shardCore, table string, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	var empty atomic.Int32
	out, err := shard.Fanout(ctx, len(c.legs), func(ctx context.Context, i int) (T, error) {
		v, err := fn(ctx, i)
		if errors.Is(err, ErrNoSynopsis) {
			empty.Add(1)
			var zero T
			return zero, nil
		}
		return v, err
	})
	if err != nil {
		return nil, err
	}
	if int(empty.Load()) == len(c.legs) {
		return nil, fmt.Errorf("%w %q", ErrNoSynopsis, table)
	}
	return out, nil
}

// Estimate scatter-gathers a direct estimate with default options; see
// EstimateQueryOpts.
func (c *shardCore) Estimate(table string, grouping []string, agg Aggregate, aggCol string, confidence float64) ([]GroupEstimate, error) {
	ests, _, err := c.EstimateQueryOpts(context.Background(), table, grouping, agg, aggCol, confidence, ApproxOptions{})
	return ests, err
}

// EstimateQueryOpts answers a group-by estimate by scatter-gather:
// every shard with a synopsis computes per-group partials over its own
// sample (or its exact datacube, unless opts.NoHybrid), the coordinator
// merges them, and the confidence interval is taken exactly once over
// the merged state — never by adding per-shard half-widths. The
// signature matches Warehouse.EstimateQueryOpts so congressd can serve
// any backend, but merged estimates always bypass the result cache (the
// answer spans every shard's data epoch at once, and a coordinator-level
// key would have to read all of them racily): the returned status is
// always CacheBypass and only opts.NoHybrid is meaningful.
func (c *shardCore) EstimateQueryOpts(ctx context.Context, table string, grouping []string, agg Aggregate, aggCol string, confidence float64, opts ApproxOptions) ([]GroupEstimate, CacheStatus, error) {
	merged, err := c.EstimatePartialsOpts(ctx, table, grouping, aggCol, PartialsOptions{NoHybrid: opts.NoHybrid})
	if err != nil {
		return nil, CacheBypass, err
	}
	ests, err := estimate.Finalize(merged, agg, confidence)
	return ests, CacheBypass, err
}

// EstimatePartialsOpts scatter-gathers the partials scan across the
// shards and merges (sums of sums, sums of variances; groups absent on a
// shard contribute that shard's explicit zero-information record),
// without taking confidence intervals — the same contract as
// Warehouse.EstimatePartialsOpts, so a coordinator can itself serve
// /v1/estimate/partials as one leg of a higher tier. opts.NoHybrid is
// forwarded to every shard, so the whole fan-out answers either hybrid
// (each covered shard exactly) or pure-sample.
//
// Fan-out legs observe ctx: the first failing shard cancels its
// siblings and fails the query — a coordinator never merges a partial
// quorum — and per-shard leg latency lands in ShardTelemetry.
func (c *shardCore) EstimatePartialsOpts(ctx context.Context, table string, grouping []string, aggCol string, opts PartialsOptions) ([]GroupPartial, error) {
	parts, err := skipEmpty(ctx, c, table, func(ctx context.Context, i int) ([]GroupPartial, error) {
		start := time.Now()
		p, err := c.legs[i].EstimatePartials(ctx, table, grouping, aggCol, opts)
		switch {
		case err == nil:
			c.tel.ObserveFanout(i, time.Since(start))
		case !errors.Is(err, ErrNoSynopsis):
			c.tel.FanoutError(i)
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	merged := estimate.MergePartials(parts...)
	if !opts.NoHybrid && hasResidualMix(merged) {
		c.mtel.HybridResidual()
	}
	return merged, nil
}

// hasResidualMix reports whether merged partials compose exact mass
// (covered shards answered from their datacubes) with sampled mass
// (uncovered shards answered from their samples) — the hybrid residual
// case a coordinator counts once per query.
func hasResidualMix(parts []GroupPartial) bool {
	exact, sampled := false, false
	for _, p := range parts {
		if p.ExactCount > 0 || p.ExactSum != 0 {
			exact = true
		}
		if p.N > 0 {
			sampled = true
		}
		if exact && sampled {
			return true
		}
	}
	return false
}

// RefreshSynopsis re-materializes the table's sample on every shard
// that has a synopsis, in parallel.
func (c *shardCore) RefreshSynopsis(table string) error {
	_, err := skipEmpty(context.Background(), c, table, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, c.legs[i].RefreshSynopsis(ctx, table)
	})
	return err
}

// Synopses lists every synopsis merged across shards: sizes, strata and
// pending counts sum; Shards counts the shards holding a partition.
// Sorted by table name. Shards that fail the listing are omitted — the
// listing is diagnostic, not transactional.
func (c *shardCore) Synopses() []SynopsisInfo {
	lists, _ := shard.Fanout(context.Background(), len(c.legs), func(ctx context.Context, i int) ([]SynopsisInfo, error) {
		list, _ := c.legs[i].Synopses(ctx) // a failed leg lists nothing
		return list, nil
	})
	byTable := make(map[string]*SynopsisInfo)
	for _, list := range lists {
		for _, info := range list {
			m := byTable[info.Table]
			if m == nil {
				cp := info
				cp.Shards = 1
				byTable[info.Table] = &cp
				continue
			}
			m.Space += info.Space
			m.SampleSize += info.SampleSize
			m.Strata += info.Strata
			m.PendingInserts += info.PendingInserts
			m.Shards++
		}
	}
	out := make([]SynopsisInfo, 0, len(byTable))
	for _, info := range byTable {
		out = append(out, *info)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Table < out[b].Table })
	return out
}

// AllocationTable concatenates the per-shard allocation tables and
// re-sorts by descending target allocation (ties broken by rendered
// group, so the listing is deterministic).
func (c *shardCore) AllocationTable(table string) ([]AllocationRow, error) {
	lists, err := skipEmpty(context.Background(), c, table, func(ctx context.Context, i int) ([]AllocationRow, error) {
		return c.legs[i].AllocationTable(ctx, table)
	})
	if err != nil {
		return nil, err
	}
	var out []AllocationRow
	for _, rows := range lists {
		out = append(out, rows...)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Target != out[b].Target {
			return out[a].Target > out[b].Target
		}
		return strings.Join(out[a].Group, "\x1f") < strings.Join(out[b].Group, "\x1f")
	})
	return out, nil
}

// Metrics reports the coordinator-level counters (the hybrid residual
// composition count lives on the coordinator, not on any one shard)
// plus, field-wise, the engine telemetry of every in-process shard.
// Shard processes behind a Coordinator expose theirs on their own
// /metrics endpoints.
func (c *shardCore) Metrics() MetricsSnapshot {
	sum := c.mtel.Snapshot()
	for _, leg := range c.legs {
		if l, ok := leg.(localShard); ok {
			addSnapshot(&sum, l.w.Metrics())
		}
	}
	return sum
}

// addSnapshot folds one shard's telemetry into the running sum.
func addSnapshot(sum *MetricsSnapshot, s MetricsSnapshot) {
	sum.RowsScanned += s.RowsScanned
	sum.StrataTouched += s.StrataTouched
	sum.MaintainerInserts += s.MaintainerInserts
	sum.MaintainerQueueDepth += s.MaintainerQueueDepth
	sum.CacheHits += s.CacheHits
	sum.CacheMisses += s.CacheMisses
	sum.CacheEvictions += s.CacheEvictions
	sum.CacheInvalidations += s.CacheInvalidations
	sum.HybridExact += s.HybridExact
	sum.HybridResidual += s.HybridResidual
	sum.HybridFallback += s.HybridFallback
	addOp(&sum.Build, s.Build)
	addOp(&sum.Refresh, s.Refresh)
	addOp(&sum.Answer, s.Answer)
	addOp(&sum.Estimate, s.Estimate)
	sum.WALRecords += s.WALRecords
	sum.WALBytes += s.WALBytes
	sum.Fsyncs += s.Fsyncs
	addOp(&sum.Snapshots, s.Snapshots)
	sum.SnapshotBytes += s.SnapshotBytes
	sum.ReplayedRecords += s.ReplayedRecords
	sum.TruncatedBytes += s.TruncatedBytes
	sum.Recovery += s.Recovery
}

func addOp(sum *metrics.OpSnapshot, o metrics.OpSnapshot) {
	sum.Count += o.Count
	sum.Total += o.Total
}
