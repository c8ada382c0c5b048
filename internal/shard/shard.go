// Package shard holds the scatter-gather machinery under the
// coordinator: a deterministic hash router that places every finest
// group's tuples on one shard (and Partition, the same placement for a
// whole relation), a parallel fan-out helper with context propagation
// and deterministic result ordering, and per-shard coordinator
// telemetry (insert counters and fan-out latency histograms).
//
// Hash routing by the finest grouping key gives each stratum a single
// home shard, so per-shard congressional synopses partition the stratum
// set — the precondition under which merging estimation partials by
// sum-of-sums and sum-of-variances reproduces the single-warehouse
// estimator exactly. The estimator merge itself is partition-agnostic
// (internal/estimate.MergePartials); routing only decides locality and
// balance.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/metrics"
)

// Router deterministically assigns group keys to shards by FNV-1a hash.
type Router struct {
	shards int
}

// NewRouter returns a router over the given shard count.
func NewRouter(shards int) (*Router, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d, need at least 1", shards)
	}
	return &Router{shards: shards}, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.shards }

// Route maps a finest group key to its home shard. The mapping is pure:
// the same key routes identically across processes and restarts. FNV-1a
// alone leaves structure in the low bits for the short, mostly-numeric
// keys rendered group values produce (measurably skewed occupancy at 8+
// shards), so the digest is passed through a 64-bit avalanche finalizer
// before the modulus.
func (r *Router) Route(key string) int {
	h := fnv.New64a()
	io.WriteString(h, key)
	return int(mix64(h.Sum64()) % uint64(r.shards))
}

// Partition splits rel into one relation per shard, each with rel's
// name and schema: part i holds, in their original order, the rows
// whose routeBy key routes to shard i — the shard a coordinator over
// the same shard count sends each row to on insert.
func Partition(rel *engine.Relation, routeBy []string, shards int) ([]*engine.Relation, error) {
	r, err := NewRouter(shards)
	if err != nil {
		return nil, err
	}
	g, err := core.NewGrouping(rel.Schema, routeBy)
	if err != nil {
		return nil, err
	}
	rows := make([][]engine.Row, shards)
	for _, row := range rel.Rows() {
		i := r.Route(g.Key(row))
		rows[i] = append(rows[i], row)
	}
	parts := make([]*engine.Relation, shards)
	for i := range parts {
		parts[i] = engine.NewRelation(rel.Name, rel.Schema)
		if err := parts[i].InsertAll(rows[i]); err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// mix64 is the Murmur3 fmix64 avalanche: every input bit affects every
// output bit, which is what the modulus needs.
func mix64(z uint64) uint64 {
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z
}

// Fanout runs fn(ctx, i) for shards 0..n-1 concurrently and returns the
// results indexed by shard ordinal — the merge input order is
// deterministic regardless of which leg finishes first. The derived
// context is canceled as soon as any leg fails, so the remaining legs
// stop promptly. The reported error prefers the first (lowest-ordinal)
// failure that is neither context.Canceled nor context.DeadlineExceeded:
// those are secondary symptoms — a leg canceled because a sibling
// failed, or cut off because the parent deadline fired while a sibling's
// real failure was propagating — and must not mask the root cause. When
// every failed leg reports only cancellation or deadline expiry, the
// lowest-ordinal one is returned as-is.
func Fanout[T any](ctx context.Context, n int, fn func(ctx context.Context, shard int) (T, error)) ([]T, error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := fn(fctx, i)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			out[i] = v
		}(i)
	}
	wg.Wait()
	var first, fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if fallback == nil {
			fallback = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			first = err
			break
		}
	}
	if first == nil {
		first = fallback
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}

// Telemetry tracks the coordinator's per-shard counters, rendered on
// /metrics as:
//
//	congress_distshard_count                       configured shard count
//	congress_distshard_inserts_total{shard}        rows routed to each shard
//	congress_distshard_fanout_errors_total{shard}  failed fan-out legs per shard
//	congress_distshard_fanout_retries_total{shard} transient-failure retries per shard
//	congress_distshard_fanout_seconds{shard,...}   per-shard fan-out leg latency
//	                                               histogram + quantiles
type Telemetry struct {
	inserts []atomic.Int64
	errors  []atomic.Int64
	retries []atomic.Int64
	fanout  []*metrics.Histogram
}

// NewTelemetry returns zeroed telemetry for n shards.
func NewTelemetry(n int) *Telemetry {
	t := &Telemetry{
		inserts: make([]atomic.Int64, n),
		errors:  make([]atomic.Int64, n),
		retries: make([]atomic.Int64, n),
		fanout:  make([]*metrics.Histogram, n),
	}
	for i := range t.fanout {
		t.fanout[i] = metrics.NewHistogram()
	}
	return t
}

// Shards returns the tracked shard count; nil telemetry reads as 0.
func (t *Telemetry) Shards() int {
	if t == nil {
		return 0
	}
	return len(t.fanout)
}

// AddInserts records n rows routed to a shard.
func (t *Telemetry) AddInserts(shard int, n int64) {
	if t != nil && shard >= 0 && shard < len(t.inserts) {
		t.inserts[shard].Add(n)
	}
}

// ObserveFanout records one completed fan-out leg against a shard.
func (t *Telemetry) ObserveFanout(shard int, d time.Duration) {
	if t != nil && shard >= 0 && shard < len(t.fanout) {
		t.fanout[shard].Observe(d)
	}
}

// FanoutError records one failed fan-out leg against a shard.
func (t *Telemetry) FanoutError(shard int) {
	if t != nil && shard >= 0 && shard < len(t.errors) {
		t.errors[shard].Add(1)
	}
}

// AddRetry records one transient-failure retry against a shard.
func (t *Telemetry) AddRetry(shard int) {
	if t != nil && shard >= 0 && shard < len(t.retries) {
		t.retries[shard].Add(1)
	}
}

// Inserts reads one shard's routed-row counter.
func (t *Telemetry) Inserts(shard int) int64 {
	if t == nil || shard < 0 || shard >= len(t.inserts) {
		return 0
	}
	return t.inserts[shard].Load()
}

// Render writes the congress_distshard_* exposition block;
// deterministic for a fixed state (shards ascend, histogram rendering is
// sorted). Zero-count fan-out histograms render as explicit zero series
// rather than being skipped, so per-shard latency series are present
// from the first scrape and never appear/disappear between scrapes.
func (t *Telemetry) Render(sb *strings.Builder) {
	if t == nil {
		return
	}
	const prefix = "congress_distshard"
	fmt.Fprintf(sb, "%s_count %d\n", prefix, len(t.fanout))
	for i := range t.inserts {
		fmt.Fprintf(sb, "%s_inserts_total{shard=%q} %d\n", prefix, strconv.Itoa(i), t.inserts[i].Load())
	}
	for i := range t.errors {
		fmt.Fprintf(sb, "%s_fanout_errors_total{shard=%q} %d\n", prefix, strconv.Itoa(i), t.errors[i].Load())
	}
	for i := range t.retries {
		fmt.Fprintf(sb, "%s_fanout_retries_total{shard=%q} %d\n", prefix, strconv.Itoa(i), t.retries[i].Load())
	}
	for i, h := range t.fanout {
		h.Snapshot().Render(sb, prefix+"_fanout_seconds", "shard", strconv.Itoa(i))
	}
}
