package main

// The benchmark's contract: workloads, metrics, units, directions and
// bounds. BENCHMARK.json at the repository root lists the same names;
// TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// Op kinds. Latencies of different kinds are never pooled: a bimodal
// mix would put the median on the boundary between the two modes.
const (
	kindSQL = "sql" // approximate SQL via /v1/query
	kindEst = "est" // direct estimate with no_hybrid (sample scan)
	kindHyb = "hyb" // direct estimate, hybrid-eligible (cube lookup)
	kindIns = "ins" // /v1/insert
)

var allKinds = []string{kindSQL, kindEst, kindHyb, kindIns}

// Table defaults: the paper's Table 3 configuration (T=1M, 1000 groups,
// z=0.86, 7% space) at quarter scale, so that three set-ups, the
// warm-up, the measured window and the output checks of one run fit the
// driver's time cap on two cores.
const (
	defaultRows   = 250_000
	ingestRows    = 100_000
	defaultGroups = 1000
	defaultSkew   = 0.86
	spacePct      = 7.0
	confidence    = 0.95
	// coverFloor fails a run whose bounds stop covering. It is not the
	// nominal level: at this table size the estimator's 95% bounds on
	// SUM and AVG cover 0.81-0.85 of the ~1000 finest groups (README.md,
	// "Accuracy"), so the floor only catches bounds that break outright.
	coverFloor   = confidence - 0.20
	setupRepeats = 3 // set-ups per run; setup_s is their median
	rateWindows  = 6 // ops_per_s is the median rate of this many equal windows
	batchRows    = 100
	tracedOpsMax = 2000
	aggColumn    = "l_quantity"
	tableName    = "lineitem"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a caller of congressd sees. p50_ms and
// tail_ms are of the workload's primary op kind; the second kind of a
// mixed workload is reported per layer (see README.md for why).
//
// Issue 11 asked for 10% on ops_per_s and p50_ms. Ten runs per workload
// on this 2-core host spread by up to 10.6% (ingest_durable, whose
// latency is 100 fsyncs per batch on a virtual disk) and 9.6%
// (sql_scan's throughput), so a 10% bound would reject the benchmark
// against itself. The bounds are twice the worst measured spread;
// README.md, "Measured steadiness", has the table.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.20},
	{"p50_ms", "ms", "lower", 0.20},
	{"tail_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are measured by the traced pass, from bench/ around the
// public call named in README.md. A layer a workload never enters
// reports 0.
var perLayer = []metricDef{
	// per-kind client latency, one client, tracing off
	{Name: "sql_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "est_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "hyb_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ins_p50_ms", Unit: "ms", Better: "lower"},
	// accuracy against ground truth computed once at set-up
	{Name: "group_err_mean_pct", Unit: "%", Better: "lower"},
	{Name: "bound_cover_frac", Unit: "frac", Better: "higher"},
	// sqlparse
	{Name: "parse_us", Unit: "us", Better: "lower"},
	{Name: "parse_cache_misses", Unit: "count", Better: "lower"},
	// rewrite
	{Name: "rewrite_us", Unit: "us", Better: "lower"},
	{Name: "plan_cache_hit_frac", Unit: "frac", Better: "higher"},
	// engine
	{Name: "exec_us", Unit: "us", Better: "lower"},
	{Name: "vectorized_frac", Unit: "frac", Better: "higher"},
	{Name: "sample_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine_exec_count", Unit: "count", Better: "lower"},
	// aqua + qcache
	{Name: "cache_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "hit_us", Unit: "us", Better: "lower"},
	{Name: "cache_evictions", Unit: "count", Better: "lower"},
	{Name: "answer_count", Unit: "count", Better: "higher"},
	// estimate
	{Name: "partials_us", Unit: "us", Better: "lower"},
	{Name: "merge_us", Unit: "us", Better: "lower"},
	{Name: "finalize_us", Unit: "us", Better: "lower"},
	{Name: "wire_enc_us", Unit: "us", Better: "lower"},
	{Name: "wire_dec_us", Unit: "us", Better: "lower"},
	{Name: "partials_bytes", Unit: "B", Better: "lower"},
	// datacube (hybrid in aqua)
	{Name: "exact_partials_us", Unit: "us", Better: "lower"},
	{Name: "hybrid_exact", Unit: "count", Better: "higher"},
	{Name: "hybrid_residual", Unit: "count", Better: "lower"},
	{Name: "hybrid_fallback", Unit: "count", Better: "lower"},
	{Name: "cube_feed_us_per_row", Unit: "us", Better: "lower"},
	// shard + distshard
	{Name: "leg_rtt_us", Unit: "us", Better: "lower"},
	{Name: "fanout_us", Unit: "us", Better: "lower"},
	{Name: "slow_over_mean_leg", Unit: "ratio", Better: "lower"},
	{Name: "leg_retries", Unit: "count", Better: "lower"},
	{Name: "leg_errors", Unit: "count", Better: "lower"},
	{Name: "shard_leg_count", Unit: "count", Better: "lower"},
	// server + pkg/client
	{Name: "http_overhead_sql_us", Unit: "us", Better: "lower"},
	{Name: "http_overhead_est_us", Unit: "us", Better: "lower"},
	{Name: "http_overhead_hyb_us", Unit: "us", Better: "lower"},
	{Name: "http_overhead_ins_us", Unit: "us", Better: "lower"},
	{Name: "shed_count", Unit: "count", Better: "lower"},
	// core (maintainers, with sample)
	{Name: "maintain_us_per_row", Unit: "us", Better: "lower"},
	{Name: "generate_s", Unit: "s", Better: "lower"},
	{Name: "build_synopsis_s", Unit: "s", Better: "lower"},
	// persist
	{Name: "wal_append_us_per_row", Unit: "us", Better: "lower"},
	{Name: "fsync_wait_us", Unit: "us", Better: "lower"},
	{Name: "wal_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "wal_record_count", Unit: "count", Better: "lower"},
	{Name: "snapshot_s", Unit: "s", Better: "lower"},
	{Name: "snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
	{Name: "snapshot_stall_ms", Unit: "ms", Better: "lower"},
	// repl
	{Name: "follower_lag_p50_records", Unit: "count", Better: "lower"},
	{Name: "follower_lag_max_records", Unit: "count", Better: "lower"},
	{Name: "follower_catchup_s", Unit: "s", Better: "lower"},
	{Name: "follower_rebootstraps", Unit: "count", Better: "lower"},
	// the traced pass itself
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "unattributed_us", Unit: "us", Better: "lower"},
}

// workloadDef names one traffic mix and the topology it runs on.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	rows    int
	groups  int     // requested group count of the generated table
	primary string  // the kind p50_ms and tail_ms are taken from
	tailPct float64 // declared tail percentile; see tailOf
	// schedLen is the per-client schedule length. It exceeds what a
	// client completes in warm-up plus a 60 s window on this host; a
	// client that does run out wraps around.
	schedLen int
	readOnly bool // reports group_err_mean_pct and bound_cover_frac
}

var workloads = []workloadDef{
	{
		Name: "sql_scan",
		Why:  "distinct no_cache SQL on one in-memory node: parse, rewrite, vectorized sample scan and JSON; cache, WAL and shards idle",
		rows: defaultRows, groups: defaultGroups, primary: kindSQL, tailPct: 99, schedLen: 1 << 17, readOnly: true,
	},
	{
		Name: "dashboard_rw",
		Why:  "32 cached SQL texts by Zipf(1.1) plus 2% single-row inserts on a durable node (fsync=interval): cache hits beside invalidation",
		rows: defaultRows, groups: defaultGroups, primary: kindSQL, tailPct: 99, schedLen: 1 << 19,
	},
	{
		Name: "dist_estimate",
		Why:  "no_cache estimates via a coordinator over two shard servers, est and hyb alternating: HTTP fan-out, partials codec, merge; no SQL",
		rows: defaultRows, groups: defaultGroups, primary: kindEst, tailPct: 95, schedLen: 1 << 16, readOnly: true,
	},
	{
		Name: "ingest_durable",
		Why:  "100-row insert batches into a fsync=always leader with a tailing follower: maintainer, cube, WAL, group commit, replication; no reads",
		rows: ingestRows, groups: defaultGroups, primary: kindIns, tailPct: 95, schedLen: 1 << 11,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
