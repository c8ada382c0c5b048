package congress

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
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
	"github.com/approxdb/congress/pkg/client"
)

// This file is the coordinator: K congressd shard processes, each owning
// a durable partition of every table (its own -data-dir, WAL and
// snapshots) and the congressional synopsis over it, fronted by one
// Coordinator. It routes inserts by the finest grouping key, batches
// them per shard, scatter-gathers partials → MergePartials → Finalize,
// fans refreshes out, and merges the synopsis/allocation listings. The
// HTTP leg to one shard process (RemoteShard: timeouts, retries, error
// mapping, wire conversion) is in distshard.go. With finest-key routing
// every stratum lives whole on one shard, so the merged answer is
// numerically identical to a single warehouse over the same strata —
// the differential tests pin single ≡ distributed to 1e-9.

// CoordinatorOptions tunes the coordinator's per-leg failure handling.
// The zero value of every field has a sensible default.
type CoordinatorOptions struct {
	// LegTimeout bounds each fan-out attempt against one shard (also
	// forwarded as the shard-side timeout_ms). Default 10s.
	LegTimeout time.Duration
	// Retries is how many extra attempts a leg gets before it fails with
	// ErrShardUnavailable: a partials leg on any transient failure
	// (transport errors, a damaged frame, 429/503/5xx), an insert,
	// refresh or listing only when the shard shed it with 429. Default
	// 2; negative means none.
	Retries int
	// HTTPClient substitutes the transport for every shard client
	// (tests, custom TLS).
	HTTPClient *http.Client
}

func (o *CoordinatorOptions) withDefaults() {
	if o.LegTimeout <= 0 {
		o.LegTimeout = 10 * time.Second
	}
	switch {
	case o.Retries == 0:
		o.Retries = 2
	case o.Retries < 0:
		o.Retries = 0
	}
}

// Coordinator fronts a static membership of congressd shard processes:
// inserts route by the finest grouping key, estimates scatter-gather
// partials over HTTP and merge them. It serves the same backend surface
// as Warehouse, so congressd -coordinator mounts it behind the ordinary
// /v1 API. Safe for concurrent use after Discover.
type Coordinator struct {
	mem    *shard.Membership
	shards []*RemoteShard
	opts   CoordinatorOptions
	router *shard.Router
	tel    *shard.Telemetry   // per-shard insert, fan-out and retry counters
	mtel   *metrics.Telemetry // coordinator-level engine counters (hybrid composition)

	mu     sync.RWMutex
	tables map[string]*ShardedTable // lower-cased name → handle
}

// NewCoordinator builds a coordinator over the shard endpoints (index
// == shard ordinal; every coordinator must list the same endpoints in
// the same order or keys route differently). Call WaitHealthy and then
// Discover before serving.
func NewCoordinator(endpoints []string, opts CoordinatorOptions) (*Coordinator, error) {
	mem, err := shard.NewMembership(endpoints)
	if err != nil {
		return nil, fmt.Errorf("congress: %w", err)
	}
	router, err := shard.NewRouter(len(mem.Endpoints))
	if err != nil {
		return nil, fmt.Errorf("congress: %w", err)
	}
	opts.withDefaults()
	co := &Coordinator{
		mem:    mem,
		opts:   opts,
		router: router,
		tel:    shard.NewTelemetry(len(mem.Endpoints)),
		mtel:   metrics.NewTelemetry(),
		tables: make(map[string]*ShardedTable),
	}
	var copts []client.Option
	if opts.HTTPClient != nil {
		copts = append(copts, client.WithHTTPClient(opts.HTTPClient))
	}
	for i, ep := range mem.Endpoints {
		co.shards = append(co.shards, &RemoteShard{
			ord:        i,
			endpoint:   ep,
			c:          client.New(ep, copts...),
			tel:        co.tel,
			legTimeout: opts.LegTimeout,
			retries:    opts.Retries,
		})
	}
	return co, nil
}

// NumShards returns the configured shard count.
func (co *Coordinator) NumShards() int { return len(co.shards) }

// Endpoints returns the shard base URLs in ordinal order.
func (co *Coordinator) Endpoints() []string { return co.mem.Endpoints }

// Shard returns the i-th remote shard (diagnostics, tests).
func (co *Coordinator) Shard(i int) *RemoteShard { return co.shards[i] }

// RenderShardMetrics writes the per-shard congress_distshard_* counters,
// then what only HTTP legs have — partials replies and body bytes per
// shard by wire encoding, so a shard still answering JSON in a cluster
// that should be speaking the binary frame is visible as such and not
// only as latency:
//
//	congress_distshard_leg_replies_total{shard,encoding}
//	congress_distshard_leg_reply_bytes_total{shard,encoding}
func (co *Coordinator) RenderShardMetrics(sb *strings.Builder) {
	co.tel.Render(sb)
	for _, rs := range co.shards {
		for e, enc := range wireEncodings {
			fmt.Fprintf(sb, "congress_distshard_leg_replies_total{shard=\"%d\",encoding=%q} %d\n", rs.ord, enc, rs.wire[e].replies.Load())
		}
	}
	for _, rs := range co.shards {
		for e, enc := range wireEncodings {
			fmt.Fprintf(sb, "congress_distshard_leg_reply_bytes_total{shard=\"%d\",encoding=%q} %d\n", rs.ord, enc, rs.wire[e].bytes.Load())
		}
	}
}

// WaitHealthy blocks until every shard process answers its health probe
// or ctx expires; the timeout error names the shards still down.
func (co *Coordinator) WaitHealthy(ctx context.Context, interval time.Duration) error {
	byEndpoint := make(map[string]*RemoteShard, len(co.shards))
	for _, rs := range co.shards {
		byEndpoint[rs.endpoint] = rs
	}
	return co.mem.WaitHealthy(ctx, interval, func(ctx context.Context, endpoint string) error {
		pctx, cancel := context.WithTimeout(ctx, co.opts.LegTimeout)
		defer cancel()
		return byEndpoint[endpoint].c.Health(pctx)
	})
}

// Discover interrogates every shard's /v1/synopses for its tables and
// schemas, verifies the shards agree (same grouping and columns for
// every shared table — a disagreeing shard would merge partials from a
// different stratification), and registers the routing state. Call once
// after WaitHealthy; re-call to pick up tables created later.
func (co *Coordinator) Discover(ctx context.Context) error {
	infos, err := shard.Fanout(ctx, len(co.shards), func(ctx context.Context, i int) ([]client.SynopsisInfo, error) {
		out, err := co.shards[i].describe(ctx, false)
		if err != nil {
			return nil, fmt.Errorf("discovery: %w", err)
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	type seenAt struct {
		info  client.SynopsisInfo
		shard int
	}
	first := make(map[string]seenAt)
	for i, list := range infos {
		for _, si := range list {
			key := strings.ToLower(si.Table)
			prev, ok := first[key]
			if !ok {
				first[key] = seenAt{si, i}
				continue
			}
			if err := sameShardSchema(prev.info, si); err != nil {
				return fmt.Errorf("congress: shards %d and %d disagree on table %q: %w",
					prev.shard, i, si.Table, err)
			}
		}
	}
	tables := make(map[string]*ShardedTable, len(first))
	for key, at := range first {
		si := at.info
		if len(si.Columns) == 0 {
			return fmt.Errorf("congress: shard %d (%s) reports no schema for table %q — upgrade the shard congressd",
				at.shard, co.shards[at.shard].endpoint, si.Table)
		}
		cols := make([]engine.Column, len(si.Columns))
		for j, cs := range si.Columns {
			kind, err := engine.ParseKind(cs.Kind)
			if err != nil {
				return fmt.Errorf("congress: table %q column %q: %w", si.Table, cs.Name, err)
			}
			cols[j] = engine.Column{Name: cs.Name, Kind: kind}
		}
		if tables[key], err = co.newTable(si.Table, cols, si.GroupBy); err != nil {
			return err
		}
	}
	co.mu.Lock()
	co.tables = tables
	co.mu.Unlock()
	return nil
}

// sameShardSchema verifies two shards' views of one table agree on the
// synopsis grouping and column schema.
func sameShardSchema(a, b client.SynopsisInfo) error {
	if !slices.Equal(a.GroupBy, b.GroupBy) {
		return fmt.Errorf("group-by %v vs %v", a.GroupBy, b.GroupBy)
	}
	if len(a.Columns) != len(b.Columns) {
		return fmt.Errorf("%d vs %d columns", len(a.Columns), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Errorf("column %d: %v vs %v", i, a.Columns[i], b.Columns[i])
		}
	}
	return nil
}

// ShardedTable is a handle to a table partitioned across the shards:
// its schema and the routing grouping resolved against it.
type ShardedTable struct {
	co   *Coordinator
	name string
	cols []engine.Column
	g    *core.Grouping
}

// newTable resolves a table's routing key against its schema. routeBy
// must name at least one column: the finest grouping attributes the
// table's synopsis is built over, so every stratum has one home shard.
func (co *Coordinator) newTable(name string, cols []engine.Column, routeBy []string) (*ShardedTable, error) {
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
	return &ShardedTable{co: co, name: name, cols: append([]engine.Column(nil), cols...), g: g}, nil
}

// Table returns the handle to a routed table. The error wraps
// ErrUnknownTable for errors.Is classification.
func (co *Coordinator) Table(name string) (*ShardedTable, error) {
	co.mu.RLock()
	t := co.tables[strings.ToLower(name)]
	co.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("congress: %w %q", ErrUnknownTable, name)
	}
	return t, nil
}

// TableColumns returns a copy of a routed table's schema columns.
func (co *Coordinator) TableColumns(table string) ([]engine.Column, error) {
	t, err := co.Table(table)
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
func (t *ShardedTable) RouteOf(row Row) int { return t.co.router.Route(t.g.Key(row)) }

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
	co := t.co
	insert := func(ctx context.Context, i int, rows []Row) (int, error) {
		n, err := co.shards[i].InsertRows(ctx, t.name, rows)
		co.tel.AddInserts(i, int64(n))
		if err != nil {
			co.tel.FanoutError(i)
		}
		return n, err
	}
	if len(rows) == 1 { // the single-row path needs no fan-out goroutines
		return insert(ctx, t.RouteOf(rows[0]), rows)
	}
	parts := make([][]Row, len(co.shards))
	for _, row := range rows {
		i := t.RouteOf(row)
		parts[i] = append(parts[i], row)
	}
	var acked atomic.Int64
	_, err := shard.Fanout(ctx, len(co.shards), func(ctx context.Context, i int) (struct{}, error) {
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
func (co *Coordinator) InsertRows(ctx context.Context, table string, rows []Row) (int, error) {
	t, err := co.Table(table)
	if err != nil {
		return 0, err
	}
	return t.InsertBatch(ctx, rows)
}

// skipEmpty runs fn on every shard in parallel and collects the results
// of the shards that hold a synopsis for table; shards reporting
// ErrNoSynopsis are skipped, and when every shard does the table has no
// synopsis at all — the error the caller gets. The first other failure
// cancels the sibling legs and fails the call.
func skipEmpty[T any](ctx context.Context, co *Coordinator, table string, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	var empty atomic.Int32
	out, err := shard.Fanout(ctx, len(co.shards), func(ctx context.Context, i int) (T, error) {
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
	if int(empty.Load()) == len(co.shards) {
		return nil, fmt.Errorf("%w %q", ErrNoSynopsis, table)
	}
	return out, nil
}

// Estimate scatter-gathers a direct estimate with default options; see
// EstimateQueryOpts.
func (co *Coordinator) Estimate(table string, grouping []string, agg Aggregate, aggCol string, confidence float64) ([]GroupEstimate, error) {
	ests, _, err := co.EstimateQueryOpts(context.Background(), table, grouping, agg, aggCol, confidence, ApproxOptions{})
	return ests, err
}

// EstimateQueryOpts answers a group-by estimate by scatter-gather:
// every shard with a synopsis computes per-group partials over its own
// sample (or its exact datacube, unless opts.NoHybrid), the coordinator
// merges them, and the confidence interval is taken exactly once over
// the merged state — never by adding per-shard half-widths. The
// signature matches Warehouse.EstimateQueryOpts so congressd can serve
// either backend, but merged estimates always bypass the result cache
// (the answer spans every shard's data epoch at once, and a
// coordinator-level key would have to read all of them racily): the
// returned status is always CacheBypass and only opts.NoHybrid is
// meaningful.
func (co *Coordinator) EstimateQueryOpts(ctx context.Context, table string, grouping []string, agg Aggregate, aggCol string, confidence float64, opts ApproxOptions) ([]GroupEstimate, CacheStatus, error) {
	merged, err := co.EstimatePartialsOpts(ctx, table, grouping, aggCol, PartialsOptions{NoHybrid: opts.NoHybrid})
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
// quorum — and per-shard leg latency lands in the congress_distshard_*
// telemetry.
func (co *Coordinator) EstimatePartialsOpts(ctx context.Context, table string, grouping []string, aggCol string, opts PartialsOptions) ([]GroupPartial, error) {
	parts, err := skipEmpty(ctx, co, table, func(ctx context.Context, i int) ([]GroupPartial, error) {
		start := time.Now()
		p, err := co.shards[i].EstimatePartials(ctx, table, grouping, aggCol, opts)
		switch {
		case err == nil:
			co.tel.ObserveFanout(i, time.Since(start))
		case !errors.Is(err, ErrNoSynopsis):
			co.tel.FanoutError(i)
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	merged := estimate.MergePartials(parts...)
	if !opts.NoHybrid && hasResidualMix(merged) {
		co.mtel.HybridResidual()
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
func (co *Coordinator) RefreshSynopsis(table string) error {
	_, err := skipEmpty(context.Background(), co, table, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, co.shards[i].RefreshSynopsis(ctx, table)
	})
	return err
}

// Synopses lists every synopsis merged across shards: sizes, strata and
// pending counts sum; Shards counts the shards holding a partition.
// Sorted by table name. Shards that fail the listing are omitted — the
// listing is diagnostic, not transactional.
func (co *Coordinator) Synopses() []SynopsisInfo {
	lists, _ := shard.Fanout(context.Background(), len(co.shards), func(ctx context.Context, i int) ([]SynopsisInfo, error) {
		list, _ := co.shards[i].Synopses(ctx) // a failed leg lists nothing
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
func (co *Coordinator) AllocationTable(table string) ([]AllocationRow, error) {
	lists, err := skipEmpty(context.Background(), co, table, func(ctx context.Context, i int) ([]AllocationRow, error) {
		return co.shards[i].AllocationTable(ctx, table)
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

// Metrics reports the coordinator-level counters: the hybrid residual
// composition count lives on the coordinator, not on any one shard.
// Shard processes expose their engine counters on their own /metrics
// endpoints.
func (co *Coordinator) Metrics() MetricsSnapshot { return co.mtel.Snapshot() }
