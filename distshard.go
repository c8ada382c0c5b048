package congress

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/approxdb/congress/internal/shard"
	"github.com/approxdb/congress/pkg/client"
)

// This file is the coordinator's leg to one shard process: RemoteShard,
// a pkg/client handle with the per-attempt timeout, the retry loop
// (the only one between congressd processes), the mapping of shard
// errors onto the package's typed sentinels, and the conversion between
// the wire types and the package's own. The coordinator that fans out
// over these legs is in coordinator.go.

// ErrShardUnavailable marks a scatter-gather leg that failed terminally
// at the transport or availability layer after the retries its call
// allows:
// the shard process is down, unreachable, or persistently shedding. A
// coordinator never answers from the surviving shards alone — a merged
// partial answer would silently drop every group homed on the missing
// shard — so the whole query fails with this typed error.
var ErrShardUnavailable = errors.New("congress: shard unavailable")

// Backoff between the attempts of one leg: exponential from
// minLegBackoff, raised to the shard's Retry-After hint, capped at
// maxLegBackoff.
const (
	minLegBackoff = 50 * time.Millisecond
	maxLegBackoff = 2 * time.Second
)

// RemoteShard is one shard process seen from the coordinator: a
// pkg/client handle plus the retry policy for its scatter-gather legs.
type RemoteShard struct {
	ord        int
	endpoint   string
	c          *client.Client
	tel        *shard.Telemetry
	legTimeout time.Duration
	retries    int
	// wire counts this shard's partials replies and their body bytes by
	// the encoding they arrived in, indexed as wireEncodings.
	wire [len(wireEncodings)]struct{ replies, bytes atomic.Int64 }
}

// wireEncodings labels RemoteShard.wire: a shard still answering JSON
// predates the binary frame (or something between strips Accept).
var wireEncodings = [...]string{"json", "binary"}

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

// Retry rules say which transient failure (one mapShardError does not
// call terminal) a call may send again.

// anyTransient fits a read-only call: a repeat cannot change state.
func anyTransient(error) bool { return true }

// onlyShed fits a call that may have executed: admission control
// rejects a 429 before the handler runs, so only that repeat cannot
// apply a write twice.
func onlyShed(err error) bool { return client.IsOverloaded(err) }

// call runs attempt under the per-attempt leg timeout, sending it again
// after a transient failure that retryable allows, up to rs.retries
// more times with exponential backoff that honors the shard's
// Retry-After; each repeat counts in the shard's retry telemetry. This
// is the only retry loop between congressd processes. Terminal API
// errors map onto the typed sentinels; a transient failure that may not
// or can no longer be retried wraps ErrShardUnavailable with the shard
// ordinal and endpoint.
func (rs *RemoteShard) call(ctx context.Context, retryable func(error) bool, attempt func(ctx context.Context) error) error {
	backoff := minLegBackoff
	for n := 1; ; n++ {
		actx, cancel := context.WithTimeout(ctx, rs.legTimeout)
		err := attempt(actx)
		cancel()
		if err == nil {
			return nil
		}
		// The parent context going away is a sibling's failure or the
		// caller's deadline, not this shard's fault: report it as such so
		// Fanout's error selection can discard it.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		mapped, terminal := mapShardError(err)
		if terminal {
			return mapped
		}
		if n > rs.retries || !retryable(err) {
			return fmt.Errorf("%w: shard %d (%s), %d attempt(s): %v",
				ErrShardUnavailable, rs.ord, rs.endpoint, n, err)
		}
		rs.tel.AddRetry(rs.ord)
		wait := backoff
		var ae *client.APIError
		if errors.As(err, &ae) && ae.RetryAfter > wait {
			wait = ae.RetryAfter
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(min(wait, maxLegBackoff)):
		}
		backoff *= 2
	}
}

// EstimatePartials runs the partials scan on the remote shard. The scan
// is read-only, so every transient failure is retried.
func (rs *RemoteShard) EstimatePartials(ctx context.Context, table string, grouping []string, aggCol string, opts PartialsOptions) ([]GroupPartial, error) {
	req := client.PartialsRequest{
		Table:     table,
		GroupBy:   grouping,
		Column:    aggCol,
		NoHybrid:  opts.NoHybrid,
		TimeoutMS: rs.legTimeout.Milliseconds(),
	}
	var resp *client.PartialsResponse
	err := rs.call(ctx, anyTransient, func(ctx context.Context) (err error) {
		resp, err = rs.c.Partials(ctx, req)
		return err
	})
	if err != nil {
		return nil, err
	}
	enc := 0
	if resp.Binary {
		enc = 1
	}
	rs.wire[enc].replies.Add(1)
	rs.wire[enc].bytes.Add(resp.WireBytes)
	return resp.Partials, nil
}

// insert posts one /v1/insert to the shard process, retried only when
// shed: after any other failure the coordinator cannot know whether the
// shard applied the rows, and a blind retry could double-insert; the
// caller sees ErrShardUnavailable and decides.
func (rs *RemoteShard) insert(ctx context.Context, req client.InsertRequest) (int, error) {
	var resp *client.InsertResponse
	err := rs.call(ctx, onlyShed, func(ctx context.Context) (err error) {
		resp, err = rs.c.Insert(ctx, req)
		return err
	})
	if err != nil {
		return 0, err
	}
	return resp.Inserted, nil
}

// InsertRows delivers the rows with one insert request.
func (rs *RemoteShard) InsertRows(ctx context.Context, table string, rows []Row) (int, error) {
	wire := make([][]any, len(rows))
	for i, row := range rows {
		wire[i] = make([]any, len(row))
		for j, v := range row {
			wire[i][j] = v.JSONValue()
		}
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

// describe fetches the shard's /v1/synopses listing, retried only when
// shed: a listing is diagnostic, and a dead shard should not hold it up
// for the whole backoff.
func (rs *RemoteShard) describe(ctx context.Context, allocation bool) ([]client.SynopsisInfo, error) {
	var infos []client.SynopsisInfo
	err := rs.call(ctx, onlyShed, func(ctx context.Context) (err error) {
		infos, err = rs.c.Synopses(ctx, allocation)
		return err
	})
	return infos, err
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
