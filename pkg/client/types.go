package client

// Wire types for the congressd HTTP/JSON API. The server
// (internal/server) imports this package so the two sides cannot drift.

import "github.com/approxdb/congress/internal/estimate"

// QueryRequest is the body of POST /v1/query. Exactly one of SQL or
// Estimate must be set: SQL answers via synopsis rewriting, Estimate via
// the direct stratified estimator with confidence bounds.
type QueryRequest struct {
	// SQL is an aggregate query over a table with a synopsis.
	SQL string `json:"sql,omitempty"`
	// Rewrite optionally overrides the synopsis's default rewriting
	// strategy for this request
	// (integrated|nested|normalized|keynormalized).
	Rewrite string `json:"rewrite,omitempty"`
	// Estimate selects the direct estimation path instead of SQL.
	Estimate *EstimateRequest `json:"estimate,omitempty"`
	// TimeoutMS caps this request's execution time, measured from when
	// the server grants it a worker slot; 0 uses the server's default
	// deadline, and the server clamps it to its configured maximum. Time
	// spent waiting in the server's admission queue is bounded separately
	// (by the smaller of this timeout and the server's queue-wait cap),
	// so under load the end-to-end latency can exceed TimeoutMS by the
	// queue wait — clients needing a hard wall-clock bound should also
	// set a transport timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache answers from the synopsis directly, skipping the server's
	// result cache for this request (the answer is not stored either).
	NoCache bool `json:"no_cache,omitempty"`
	// NoHybrid forces the pure-sample estimator for this request even
	// when the synopsis's exact datacube covers it (estimate requests
	// only; SQL answering never uses the hybrid path).
	NoHybrid bool `json:"no_hybrid,omitempty"`
}

// CacheHeader is the response header /v1/query uses to report how the
// answer was produced: "hit", "miss", or "bypass".
const CacheHeader = "X-Congress-Cache"

// EstimateRequest describes one direct-estimation query.
type EstimateRequest struct {
	// Table is the base table (must have a synopsis).
	Table string `json:"table"`
	// GroupBy is the output grouping (a subset of the synopsis's
	// grouping columns); empty means no group-by.
	GroupBy []string `json:"group_by,omitempty"`
	// Agg is the aggregate: sum|count|avg.
	Agg string `json:"agg"`
	// Column is the aggregated column.
	Column string `json:"column"`
	// Confidence is the two-sided confidence level for the reported
	// bounds; 0 means the Aqua default of 0.90.
	Confidence float64 `json:"confidence,omitempty"`
}

// PartialsRequest is the body of POST /v1/estimate/partials: one
// estimation scan returning the mergeable per-group sufficient
// statistics instead of finalized estimates. This is the distributed
// scatter-gather leg — a coordinator fans it out to every shard and
// merges the partials before taking confidence intervals exactly once.
type PartialsRequest struct {
	// Table is the base table (must have a synopsis).
	Table string `json:"table"`
	// GroupBy is the output grouping (a subset of the synopsis's
	// grouping columns); empty means no group-by.
	GroupBy []string `json:"group_by,omitempty"`
	// Column is the aggregated column. Partials are aggregate- and
	// confidence-independent: one scan serves SUM, COUNT and AVG.
	Column string `json:"column"`
	// NoHybrid forces the partials to come from the sample scan even
	// when this shard's exact datacube covers the request.
	NoHybrid bool `json:"no_hybrid,omitempty"`
	// TimeoutMS caps this request's execution time like
	// QueryRequest.TimeoutMS.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// PartialsResponse is the body returned by /v1/estimate/partials, as
// JSON (the records are estimate.GroupPartial in its JSON encoding:
// non-finite floats travel as the strings "+Inf"/"-Inf"/"NaN") or, to a
// caller whose Accept lists estimate.PartialsContentType, as the binary
// frame of estimate.EncodePartials carrying the same two fields.
type PartialsResponse struct {
	Partials  []estimate.GroupPartial `json:"partials"`
	ElapsedMS float64                 `json:"elapsed_ms"`
	// Binary and WireBytes are filled in by Client.Partials and never
	// sent: whether the reply came as the binary frame, and its body
	// length either way.
	Binary    bool  `json:"-"`
	WireBytes int64 `json:"-"`
}

// ExactRequest is the body of POST /v1/exact.
type ExactRequest struct {
	SQL       string `json:"sql"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// QueryResponse is the body returned by /v1/query and /v1/exact. SQL
// answers fill Columns/Rows; estimate answers fill Groups.
type QueryResponse struct {
	Columns []string `json:"columns,omitempty"`
	// Rows hold JSON-native values: numbers, strings, booleans, null;
	// dates render as "yyyy-mm-dd" strings.
	Rows      [][]any         `json:"rows,omitempty"`
	Groups    []GroupEstimate `json:"groups,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms"`
	// Cache reports how /v1/query produced the answer: "hit", "miss", or
	// "bypass" (cache disabled or no_cache set). Mirrors CacheHeader.
	Cache string `json:"cache,omitempty"`
}

// GroupEstimate is one output group of a direct estimate.
type GroupEstimate struct {
	// Group holds the rendered grouping-column values.
	Group []string `json:"group"`
	// Value is the estimate.
	Value float64 `json:"value"`
	// Bound is the half-width of the confidence interval.
	Bound float64 `json:"bound"`
	// SampleN is the number of sampled tuples that contributed.
	SampleN int `json:"sample_n"`
}

// InsertRequest is the body of POST /v1/insert. Rows hold JSON-native
// values converted by the server against the table schema (dates as
// "yyyy-mm-dd" strings).
type InsertRequest struct {
	Table string  `json:"table"`
	Rows  [][]any `json:"rows"`
	// Refresh re-materializes the table's synopsis after the inserts so
	// they become visible to queries immediately.
	Refresh bool `json:"refresh,omitempty"`
}

// InsertResponse reports how many rows were inserted.
type InsertResponse struct {
	Inserted  int  `json:"inserted"`
	Refreshed bool `json:"refreshed,omitempty"`
}

// SynopsisInfo is one entry of GET /v1/synopses.
type SynopsisInfo struct {
	Table          string          `json:"table"`
	GroupBy        []string        `json:"group_by"`
	Strategy       string          `json:"strategy"`
	Space          int             `json:"space"`
	SampleSize     int             `json:"sample_size"`
	Strata         int             `json:"strata"`
	PendingInserts int64           `json:"pending_inserts"`
	Shards         int             `json:"shards,omitempty"`
	Allocation     []AllocationRow `json:"allocation,omitempty"`
	// Columns is the table schema in column order — a distributed
	// coordinator discovers shard schemas from it and verifies every
	// shard agrees before serving.
	Columns []ColumnSpec `json:"columns,omitempty"`
}

// ColumnSpec is one column of a table schema as reported by
// /v1/synopses.
type ColumnSpec struct {
	Name string `json:"name"`
	// Kind is the engine value kind: NULL, BOOLEAN, INTEGER, FLOAT,
	// VARCHAR or DATE.
	Kind string `json:"kind"`
}

// AllocationRow is one line of a synopsis's Figure 5-style allocation
// table (returned when /v1/synopses is called with ?allocation=1).
type AllocationRow struct {
	Group      []string `json:"group"`
	Population int64    `json:"population"`
	PreScale   float64  `json:"pre_scale"`
	Target     float64  `json:"target"`
	Actual     int      `json:"actual"`
}

// SynopsesResponse is the body of GET /v1/synopses.
type SynopsesResponse struct {
	Synopses []SynopsisInfo `json:"synopses"`
}

// SnapshotResponse is the body of POST /v1/snapshot: the durability
// layer's state after the snapshot completed.
type SnapshotResponse struct {
	// Dir is the server's data directory.
	Dir string `json:"dir"`
	// Generation is the snapshot/WAL generation after the rotation.
	Generation uint64 `json:"generation"`
	// Fsync is the active WAL durability policy.
	Fsync string `json:"fsync"`
}

// ReplStatus is the body of GET /v1/repl/status. Role selects which
// fields are meaningful: followers report lag against their leader,
// leaders report shipping progress, standalone servers report only the
// role.
type ReplStatus struct {
	// Role is "standalone", "leader", or "follower".
	Role string `json:"role"`
	// Leader is the leader base URL (followers only).
	Leader string `json:"leader,omitempty"`
	// Gen is the WAL generation currently being written (leader) or
	// shipped (follower).
	Gen uint64 `json:"gen,omitempty"`
	// LagRecords/LagSeconds report follower staleness: records not yet
	// applied and time since the follower was last fully caught up.
	LagRecords int64   `json:"lag_records,omitempty"`
	LagSeconds float64 `json:"lag_seconds,omitempty"`
	// CaughtUp reports a follower with zero lag.
	CaughtUp bool `json:"caught_up,omitempty"`
	// Reconnects counts follower reconnect/backoff cycles.
	Reconnects int64 `json:"reconnects,omitempty"`
	// SegmentsShipped counts fully shipped WAL segments.
	SegmentsShipped int64 `json:"segments_shipped,omitempty"`
	// BytesShipped counts shipped WAL bytes.
	BytesShipped int64 `json:"bytes_shipped,omitempty"`
	// RecordsApplied counts records a follower has applied.
	RecordsApplied int64 `json:"records_applied,omitempty"`
	// Watermark/RecordSeq describe a leader's current segment.
	Watermark int64 `json:"watermark,omitempty"`
	RecordSeq int64 `json:"record_seq,omitempty"`
}

// ErrorBody is the JSON error envelope every non-2xx response carries.
type ErrorBody struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is a stable machine-readable cause: bad_query, no_synopsis,
	// unknown_table, deadline_exceeded, canceled, overloaded,
	// not_persistent, shard_unavailable, internal.
	Code string `json:"code"`
}
