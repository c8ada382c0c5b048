package congress

import (
	"fmt"
	"sort"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// StratifiedSample is the public name of the stratified sample a
// synopsis materializes; ShardedWarehouse.Sample returns the weighted
// union of the per-shard samples as one.
type StratifiedSample = sample.Stratified[Row]

// ShardedWarehouse partitions every table by hash of a routing key
// across K in-process shard warehouses, each holding its own
// congressional synopsis over its slice of the data. It is the
// coordinator core (shardcore.go) over in-process legs: inserts route to
// one shard, estimation scatter-gathers mergeable per-group partials and
// takes the confidence interval exactly once over the merged state.
// Everything declared here is what only an in-process deployment can do:
// create and bulk-load tables, build the per-shard synopses, union the
// samples.
//
// Routing by the finest grouping key places every stratum whole on one
// shard, so the per-shard synopses partition the stratum set and the
// merged estimate is the single-warehouse estimate over the same
// strata. Routing by a coarser key (a subset of the grouping) is still
// statistically sound — a split stratum just becomes one stratum per
// shard — but the variance decomposition then differs from the
// unsharded build.
//
// A ShardedWarehouse keeps its shards in this process; durability
// belongs to the individual Warehouse and is not exposed through this
// handle. For shards that live in their own processes with their own
// data directories, see Coordinator: the same core over HTTP legs.
type ShardedWarehouse struct {
	*shardCore
	shards []*Warehouse
}

// OpenSharded creates an empty sharded warehouse over the given number
// of shards (at least 1).
func OpenSharded(shards int) (*ShardedWarehouse, error) {
	c, err := newShardCore(shards, "congress_shard")
	if err != nil {
		return nil, err
	}
	sw := &ShardedWarehouse{shardCore: c, shards: make([]*Warehouse, shards)}
	for i := range sw.shards {
		sw.shards[i] = Open()
		c.legs[i] = localShard{sw.shards[i]}
	}
	return sw, nil
}

// Shard returns the i-th shard warehouse for diagnostics and tests.
// Mutating a shard directly bypasses routing; treat it as read-only.
func (sw *ShardedWarehouse) Shard(i int) *Warehouse { return sw.shards[i] }

// ConfigureCache re-sizes every shard's result cache; see
// Warehouse.ConfigureCache. Note that sharded estimates always bypass
// the result cache (the merged answer spans epochs of all shards), so
// this only affects direct access to the shard warehouses.
func (sw *ShardedWarehouse) ConfigureCache(maxEntries int, maxBytes int64) {
	for _, w := range sw.shards {
		w.ConfigureCache(maxEntries, maxBytes)
	}
}

// Close closes every shard. In-process shards hold no durable state,
// so this is a formality that keeps the lifecycle symmetric with
// Warehouse.
func (sw *ShardedWarehouse) Close() error {
	var first error
	for _, w := range sw.shards {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CreateTable registers an empty table on every shard. routeBy names
// the routing key columns — use the finest grouping attributes the
// table's synopsis will be built over, so every stratum has a single
// home shard.
func (sw *ShardedWarehouse) CreateTable(name string, routeBy []string, cols ...engine.Column) (*ShardedTable, error) {
	st, err := sw.newTable(name, cols, routeBy)
	if err != nil {
		return nil, err
	}
	for _, w := range sw.shards {
		if _, err := w.CreateTable(name, cols...); err != nil {
			return nil, err
		}
	}
	sw.register(st)
	return st, nil
}

// AttachRelation bulk-loads an existing relation, partitioning its rows
// by the routing key: each shard receives its slice as a fresh relation
// under the same name and schema. The source relation is not retained.
func (sw *ShardedWarehouse) AttachRelation(rel *engine.Relation, routeBy []string) (*ShardedTable, error) {
	st, err := sw.newTable(rel.Name, rel.Schema.Cols, routeBy)
	if err != nil {
		return nil, err
	}
	parts := make([][]Row, len(sw.shards))
	for _, row := range rel.Rows() {
		i := st.RouteOf(row)
		parts[i] = append(parts[i], row)
	}
	for i, w := range sw.shards {
		shardRel := engine.NewRelation(rel.Name, rel.Schema)
		if err := shardRel.InsertAll(parts[i]); err != nil {
			return nil, err
		}
		if _, err := w.AttachRelation(shardRel); err != nil {
			return nil, err
		}
		sw.tel.AddInserts(i, int64(len(parts[i])))
	}
	sw.register(st)
	return st, nil
}

// BuildSynopsis builds a congressional synopsis on every non-empty
// shard of spec.Table, splitting spec.Space across shards proportional
// to their row counts (floor + largest remainder, so the total is
// exactly spec.Space). Per-shard sampling seeds derive from spec.Seed
// and the shard ordinal, so the build is deterministic for a fixed
// (data, routing, Seed) and shards never share a random stream.
func (sw *ShardedWarehouse) BuildSynopsis(spec SynopsisSpec) error {
	if _, err := sw.Table(spec.Table); err != nil {
		return err
	}
	rows := make([]int, len(sw.shards))
	total := 0
	for i, w := range sw.shards {
		t, err := w.Table(spec.Table)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		rows[i] = t.NumRows()
		total += rows[i]
	}
	if total == 0 {
		return fmt.Errorf("%w: sharded table %q is empty", ErrBadQuery, spec.Table)
	}
	space := splitProportional(spec.Space, rows, total)
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	for i, w := range sw.shards {
		if rows[i] == 0 {
			continue // empty shard: no synopsis; estimation skips it
		}
		ss := spec
		ss.Space = space[i]
		ss.Seed = seed + int64(i)*0x9E37 // distinct deterministic streams
		if err := w.BuildSynopsis(ss); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// splitProportional divides budget across weights summing to total by
// floors plus largest remainders; the parts sum exactly to budget and
// zero-weight entries get zero.
func splitProportional(budget int, weights []int, total int) []int {
	out := make([]int, len(weights))
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, 0, len(weights))
	assigned := 0
	for i, wt := range weights {
		if wt == 0 {
			continue
		}
		exact := float64(budget) * float64(wt) / float64(total)
		out[i] = int(exact)
		assigned += out[i]
		rems = append(rems, rem{i, exact - float64(out[i])})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].i < rems[b].i
	})
	for k := 0; k < budget-assigned && k < len(rems); k++ {
		out[rems[k].i]++
	}
	return out
}

// Sample returns the weighted union of the per-shard stratified samples
// for a table: group populations add, and when perGroupCap forces a
// subsample the per-shard draws follow the group's population split
// (core.UnionStratified). seed fixes the draw (0 = 1). perGroupCap <= 0
// concatenates everything.
func (sw *ShardedWarehouse) Sample(table string, perGroupCap int, seed int64) (*StratifiedSample, error) {
	parts := make([]*sample.Stratified[Row], 0, len(sw.shards))
	for _, w := range sw.shards {
		if syn, ok := w.aq.Synopsis(table); ok {
			parts = append(parts, syn.Sample())
		}
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w %q", ErrNoSynopsis, table)
	}
	return core.UnionStratified(parts, perGroupCap, seed)
}
