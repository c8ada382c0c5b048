package congress

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/shard"
	"github.com/approxdb/congress/pkg/client"
)

// This file is the distributed half of sharding: a Coordinator is the
// coordinator core (shardcore.go) over K congressd shard *processes*,
// the way ShardedWarehouse is that core over K in-process warehouses.
// Each shard process owns a durable partition of every table (its own
// -data-dir, WAL and snapshots) plus the congressional synopsis over
// that partition. What lives here is what only a remote deployment
// needs: the HTTP leg (RemoteShard) with its timeouts, retries, error
// mapping and wire conversion, health probing, and schema discovery.

// ErrShardUnavailable marks a scatter-gather leg that failed terminally
// at the transport or availability layer after exhausting its retries:
// the shard process is down, unreachable, or persistently shedding. A
// coordinator never answers from the surviving shards alone — a merged
// partial answer would silently drop every group homed on the missing
// shard — so the whole query fails with this typed error.
var ErrShardUnavailable = errors.New("congress: shard unavailable")

// CoordinatorOptions tunes the coordinator's per-leg failure handling.
// The zero value of every field has a sensible default.
type CoordinatorOptions struct {
	// LegTimeout bounds each fan-out attempt against one shard (also
	// forwarded as the shard-side timeout_ms). Default 10s.
	LegTimeout time.Duration
	// Retries is how many extra attempts a transiently failing partials
	// leg gets (transport errors, 429/503/5xx) before the query fails
	// with ErrShardUnavailable. Default 2; negative means none.
	Retries int
	// MaxBackoff caps the exponential retry backoff. Default 2s.
	MaxBackoff time.Duration
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
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
}

// RemoteShard is one shard process seen from the coordinator: a
// pkg/client handle plus the retry policy for its scatter-gather legs.
// It satisfies ShardBackend, so the coordinator core cannot tell a
// remote shard from an in-process one.
type RemoteShard struct {
	ord        int
	endpoint   string
	c          *client.Client
	tel        *shard.Telemetry
	legTimeout time.Duration
	retries    int
	maxBackoff time.Duration
	// wire counts this shard's partials replies and their body bytes by
	// the encoding they arrived in, indexed as wireEncodings.
	wire [len(wireEncodings)]struct{ replies, bytes atomic.Int64 }
}

// wireEncodings labels RemoteShard.wire: a shard still answering JSON
// predates the binary frame (or something between strips Accept).
var wireEncodings = [...]string{"json", "binary"}

// Endpoint returns the shard process's base URL.
func (rs *RemoteShard) Endpoint() string { return rs.endpoint }

// Client returns the underlying API client (diagnostics, tests).
func (rs *RemoteShard) Client() *client.Client { return rs.c }

// mapShardError classifies one leg failure: terminal errors are mapped
// onto the package's typed sentinels (so errors.Is classification works
// across the process boundary exactly as in-process), transient ones
// (transport failures, shedding, 5xx) report terminal=false and are
// retried by the caller.
func mapShardError(err error) (mapped error, terminal bool) {
	var ae *client.APIError
	if !errors.As(err, &ae) {
		return err, false // transport-level failure: the process may come back
	}
	switch ae.Code {
	case "bad_query", "bad_request":
		return fmt.Errorf("%w: %s", ErrBadQuery, ae.Message), true
	case "no_synopsis":
		return fmt.Errorf("%w: %s", ErrNoSynopsis, ae.Message), true
	case "unknown_table":
		return fmt.Errorf("%w: %s", ErrUnknownTable, ae.Message), true
	}
	if ae.Status == http.StatusTooManyRequests ||
		ae.Status == http.StatusServiceUnavailable || ae.Status >= 500 {
		return err, false
	}
	return err, true // remaining 4xx: retrying the same request cannot help
}

// wrapErr maps a client error from a call that is not retried: typed
// sentinels pass through, everything transport/availability-shaped
// wraps ErrShardUnavailable with the shard's identity.
func (rs *RemoteShard) wrapErr(err error) error {
	if mapped, terminal := mapShardError(err); terminal {
		return mapped
	}
	return fmt.Errorf("%w: shard %d (%s): %v", ErrShardUnavailable, rs.ord, rs.endpoint, err)
}

// EstimatePartials runs the partials scan on the remote shard with
// per-attempt timeouts and retry-with-backoff on transient failures,
// honoring the shard's Retry-After hint when it sheds. Terminal API
// errors map onto the typed sentinels; exhausted retries wrap
// ErrShardUnavailable with the shard ordinal and endpoint.
func (rs *RemoteShard) EstimatePartials(ctx context.Context, table string, grouping []string, aggCol string, opts PartialsOptions) ([]GroupPartial, error) {
	req := client.PartialsRequest{
		Table:     table,
		GroupBy:   grouping,
		Column:    aggCol,
		NoHybrid:  opts.NoHybrid,
		TimeoutMS: rs.legTimeout.Milliseconds(),
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= rs.retries; attempt++ {
		if attempt > 0 {
			rs.tel.AddRetry(rs.ord)
			wait := backoff
			var ae *client.APIError
			if errors.As(lastErr, &ae) && ae.RetryAfter > wait {
				wait = ae.RetryAfter
			}
			if wait > rs.maxBackoff {
				wait = rs.maxBackoff
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(wait):
			}
			backoff *= 2
		}
		actx, cancel := context.WithTimeout(ctx, rs.legTimeout)
		resp, err := rs.c.Partials(actx, req)
		cancel()
		if err == nil {
			enc := 0
			if resp.Binary {
				enc = 1
			}
			rs.wire[enc].replies.Add(1)
			rs.wire[enc].bytes.Add(resp.WireBytes)
			return resp.Partials, nil
		}
		// The parent context going away is a sibling's failure or the
		// caller's deadline, not this shard's fault: report it as such so
		// Fanout's error selection can discard it.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		mapped, terminal := mapShardError(err)
		if terminal {
			return nil, mapped
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: shard %d (%s) after %d attempts: %v",
		ErrShardUnavailable, rs.ord, rs.endpoint, rs.retries+1, lastErr)
}

// insert posts one /v1/insert to the shard process under the leg
// timeout. Inserts are not retried on transport failure — the
// coordinator cannot know whether the shard applied the rows before the
// connection died, and a blind retry could double-insert; the caller
// sees ErrShardUnavailable and decides. (429 shedding is retried inside
// the client: shed requests are rejected before execution, so that
// retry is safe.)
func (rs *RemoteShard) insert(ctx context.Context, req client.InsertRequest) (int, error) {
	cctx, cancel := context.WithTimeout(ctx, rs.legTimeout)
	defer cancel()
	resp, err := rs.c.Insert(cctx, req)
	if err != nil {
		return 0, rs.wrapErr(err)
	}
	return resp.Inserted, nil
}

// InsertRows delivers the rows with one insert request.
func (rs *RemoteShard) InsertRows(ctx context.Context, table string, rows []Row) (int, error) {
	wire := make([][]any, len(rows))
	for i, row := range rows {
		wire[i] = wireRow(row)
	}
	return rs.insert(ctx, client.InsertRequest{Table: table, Rows: wire})
}

// RefreshSynopsis re-materializes the shard's sample: an empty insert
// with refresh=true. The insert endpoint resolves the table before the
// synopsis, so a table the shard does not hold comes back unknown_table;
// for a refresh that is the same condition as in-process: no synopsis.
func (rs *RemoteShard) RefreshSynopsis(ctx context.Context, table string) error {
	_, err := rs.insert(ctx, client.InsertRequest{Table: table, Refresh: true})
	if errors.Is(err, ErrUnknownTable) {
		return fmt.Errorf("%w %q on shard %d", ErrNoSynopsis, table, rs.ord)
	}
	return err
}

// describe fetches the shard's /v1/synopses listing under the leg
// timeout.
func (rs *RemoteShard) describe(ctx context.Context, allocation bool) ([]client.SynopsisInfo, error) {
	cctx, cancel := context.WithTimeout(ctx, rs.legTimeout)
	defer cancel()
	infos, err := rs.c.Synopses(cctx, allocation)
	if err != nil {
		return nil, rs.wrapErr(err)
	}
	return infos, nil
}

// Synopses lists the shard process's synopses.
func (rs *RemoteShard) Synopses(ctx context.Context) ([]SynopsisInfo, error) {
	infos, err := rs.describe(ctx, false)
	if err != nil {
		return nil, err
	}
	out := make([]SynopsisInfo, len(infos))
	for i, ci := range infos {
		out[i] = SynopsisInfo{
			Table:          ci.Table,
			GroupBy:        ci.GroupBy,
			Strategy:       ci.Strategy,
			Space:          ci.Space,
			SampleSize:     ci.SampleSize,
			Strata:         ci.Strata,
			PendingInserts: ci.PendingInserts,
		}
	}
	return out, nil
}

// AllocationTable reads the table's allocation off the shard's
// /v1/synopses?allocation listing.
func (rs *RemoteShard) AllocationTable(ctx context.Context, table string) ([]AllocationRow, error) {
	infos, err := rs.describe(ctx, true)
	if err != nil {
		return nil, err
	}
	for _, ci := range infos {
		if !strings.EqualFold(ci.Table, table) {
			continue
		}
		rows := make([]AllocationRow, len(ci.Allocation))
		for i, ar := range ci.Allocation {
			rows[i] = AllocationRow{
				Group:      ar.Group,
				Population: ar.Population,
				PreScale:   ar.PreScale,
				Target:     ar.Target,
				Actual:     ar.Actual,
			}
		}
		return rows, nil
	}
	return nil, fmt.Errorf("%w %q on shard %d", ErrNoSynopsis, table, rs.ord)
}

// wireRow converts engine values to their JSON-native wire form (the
// inverse of the server's per-column decode): numbers stay numbers,
// strings and dates render as display text.
func wireRow(row Row) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.K {
		case engine.KindNull:
			out[i] = nil
		case engine.KindBool:
			out[i] = v.I != 0
		case engine.KindInt:
			out[i] = v.I
		case engine.KindFloat:
			out[i] = v.F
		default:
			out[i] = v.String()
		}
	}
	return out
}

// Coordinator fronts a static membership of congressd shard processes:
// inserts route by the finest grouping key, estimates scatter-gather
// partials over HTTP and merge exactly as the in-process path does —
// both are the same shardCore. It serves the same backend surface as
// Warehouse/ShardedWarehouse, so congressd -coordinator mounts it behind
// the ordinary /v1 API. Safe for concurrent use after Discover.
type Coordinator struct {
	*shardCore
	mem    *shard.Membership
	shards []*RemoteShard
	opts   CoordinatorOptions
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
	opts.withDefaults()
	c, err := newShardCore(len(mem.Endpoints), "congress_distshard")
	if err != nil {
		return nil, err
	}
	co := &Coordinator{shardCore: c, mem: mem, opts: opts}
	for i, ep := range mem.Endpoints {
		copts := []client.Option{client.WithRetry(opts.Retries, opts.MaxBackoff)}
		if opts.HTTPClient != nil {
			copts = append(copts, client.WithHTTPClient(opts.HTTPClient))
		}
		rs := &RemoteShard{
			ord:        i,
			endpoint:   ep,
			c:          client.New(ep, copts...),
			tel:        c.tel,
			legTimeout: opts.LegTimeout,
			retries:    opts.Retries,
			maxBackoff: opts.MaxBackoff,
		}
		co.shards = append(co.shards, rs)
		c.legs[i] = rs
	}
	return co, nil
}

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
	co.shardCore.RenderShardMetrics(sb)
	for _, rs := range co.shards {
		for e, enc := range wireEncodings {
			fmt.Fprintf(sb, "%s_leg_replies_total{shard=\"%d\",encoding=%q} %d\n", co.telPrefix, rs.ord, enc, rs.wire[e].replies.Load())
		}
	}
	for _, rs := range co.shards {
		for e, enc := range wireEncodings {
			fmt.Fprintf(sb, "%s_leg_reply_bytes_total{shard=\"%d\",encoding=%q} %d\n", co.telPrefix, rs.ord, enc, rs.wire[e].bytes.Load())
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
	co.setTables(tables)
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
