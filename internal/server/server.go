// Package server is congressd's HTTP/JSON query service over an Aqua
// warehouse: approximate answers from precomputed congressional
// synopses served over the network with per-request deadlines, admission
// control with bounded queueing and load shedding, structured request
// logging, panic recovery, operational metrics, and graceful shutdown.
//
// Endpoints:
//
//	POST /v1/query     approximate answer (SQL rewrite or direct estimate)
//	POST /v1/exact     exact answer against the base tables
//	POST /v1/insert    feed rows to a table and its synopsis maintainer
//	POST /v1/estimate/partials  mergeable per-group partials (the
//	                   distributed scatter-gather leg): JSON, or the
//	                   binary frame to a caller that sends
//	                   Accept: application/x-congress-partials
//	POST /v1/snapshot  write a durable snapshot now (persistent servers)
//	GET  /v1/synopses  list registered synopses (+allocation tables)
//	GET  /v1/repl/...  replication: status always; manifest/snapshot/wal
//	                   shipping when the server is a leader
//	GET  /metrics      congress_* telemetry + server_* histograms
//	GET  /healthz      liveness probe (+ replication role and lag)
//
// A server wired with Options.Follower serves reads only: /v1/insert
// and /v1/snapshot answer 503 with a Leader header pointing writers at
// the leader.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/aqua"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/repl"
	"github.com/approxdb/congress/pkg/client"
)

// Options configures a Server. The zero value of every field has a
// sensible default.
type Options struct {
	// Warehouse is the warehouse to serve. Exactly one of Warehouse and
	// Coordinator must be set.
	Warehouse *congress.Warehouse
	// Coordinator serves a distributed deployment instead: each shard is
	// its own congressd process and estimates scatter-gather over HTTP
	// via /v1/estimate/partials. The SQL paths (/v1/exact and sql-form
	// /v1/query) are unavailable, and /v1/snapshot reports
	// not_persistent: snapshots belong to the individual shard
	// processes.
	Coordinator *congress.Coordinator
	// Logger receives structured request and lifecycle logs; defaults to
	// slog.Default().
	Logger *slog.Logger
	// MaxConcurrent bounds requests executing simultaneously (the worker
	// semaphore). Default 4×GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a worker slot; beyond it
	// requests are shed with 429. Default 4×MaxConcurrent.
	QueueDepth int
	// DefaultTimeout applies when a request carries no timeout_ms.
	// Default 10s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts. Default 60s.
	MaxTimeout time.Duration
	// MaxQueueWait caps how long a request may wait in the admission
	// queue for a worker slot; the wait window is the smaller of the
	// request's timeout and this cap. The execution deadline (timeout_ms)
	// starts only once the slot is acquired, so a request's end-to-end
	// time can reach min(timeout, MaxQueueWait) + timeout. Tighten this
	// to bound total latency for clients that treat timeout_ms as an
	// end-to-end budget. Default MaxTimeout (the wait window is then just
	// the request timeout).
	MaxQueueWait time.Duration
	// RetryAfter is the backoff hint attached to 429 responses. Default 1s.
	RetryAfter time.Duration
	// ReplLeader, when set, mounts the replication shipping API
	// (/v1/repl/manifest, /v1/repl/snapshot/{gen}, /v1/repl/wal/{gen})
	// so followers can tail this server's data directory.
	ReplLeader *repl.Leader
	// Follower, when set, marks this server a read-only replication
	// follower: writes answer 503 with a Leader hint, and /healthz,
	// /metrics, and /v1/repl/status report replication lag. Requires
	// Warehouse (followers replay into a single warehouse).
	Follower *repl.Follower
}

func (o *Options) withDefaults() {
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 4 * o.MaxConcurrent
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 10 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 60 * time.Second
	}
	if o.MaxQueueWait <= 0 {
		o.MaxQueueWait = o.MaxTimeout
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
}

// Server serves one warehouse over HTTP. Create with New, start with
// Start (or mount Handler on your own listener), stop with Shutdown.
type Server struct {
	b    Backend
	opts Options
	log  *slog.Logger
	adm  *admission
	met  *serverMetrics
	mux  *http.ServeMux
	http *http.Server

	reqID atomic.Int64

	// onExecute, when set, runs inside query-path handlers after
	// admission but before execution. Tests use it to hold worker slots
	// open deterministically.
	onExecute func()
}

// New builds a Server over the warehouse. It panics unless exactly one
// of opts.Warehouse and opts.Coordinator is set (a programming error,
// not a runtime condition).
func New(opts Options) *Server {
	// Only non-nil pointers go into the slice: a nil *T stored in the
	// interface would not compare equal to nil later.
	var backends []Backend
	if opts.Warehouse != nil {
		backends = append(backends, opts.Warehouse)
	}
	if opts.Coordinator != nil {
		backends = append(backends, opts.Coordinator)
	}
	if len(backends) != 1 {
		panic("server: exactly one of Options.Warehouse and Options.Coordinator is required")
	}
	if opts.Follower != nil && opts.Warehouse == nil {
		panic("server: Options.Follower requires Options.Warehouse")
	}
	if opts.Follower != nil && opts.ReplLeader != nil {
		panic("server: a server cannot be both replication leader and follower")
	}
	opts.withDefaults()
	s := &Server{
		b:    backends[0],
		opts: opts,
		log:  opts.Logger,
		adm:  newAdmission(opts.MaxConcurrent, opts.QueueDepth),
		met:  newServerMetrics(),
		mux:  http.NewServeMux(),
	}
	s.mux.Handle("POST /v1/query", s.instrument("query", s.handleQuery))
	s.mux.Handle("POST /v1/exact", s.instrument("exact", s.handleExact))
	s.mux.Handle("POST /v1/insert", s.instrument("insert", s.handleInsert))
	s.mux.Handle("POST /v1/estimate/partials", s.instrument("partials", s.handlePartials))
	s.mux.Handle("POST /v1/snapshot", s.instrument("snapshot", s.handleSnapshot))
	s.mux.Handle("GET /v1/synopses", s.instrument("synopses", s.handleSynopses))
	s.mux.Handle("GET /v1/repl/status", s.instrument("repl_status", s.handleReplStatus))
	if opts.ReplLeader != nil {
		s.mux.Handle("GET /v1/repl/manifest", s.instrument("repl", opts.ReplLeader.HandleManifest))
		s.mux.Handle("GET /v1/repl/snapshot/{gen}", s.instrument("repl", opts.ReplLeader.HandleSnapshot))
		s.mux.Handle("GET /v1/repl/wal/{gen}", s.instrument("repl", opts.ReplLeader.HandleWAL))
	}
	s.mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.http = &http.Server{Handler: s.mux}
	return s
}

// Handler returns the fully wired HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. ":8642", "127.0.0.1:0") and serves in a
// background goroutine, returning the bound address. Serve errors other
// than http.ErrServerClosed are logged.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.log.Error("serve failed", slog.String("err", err.Error()))
		}
	}()
	s.log.Info("congressd listening", slog.String("addr", ln.Addr().String()),
		slog.Int("max_concurrent", s.opts.MaxConcurrent), slog.Int("queue_depth", s.opts.QueueDepth))
	return ln.Addr().String(), nil
}

// Shutdown gracefully stops the server: it stops accepting new
// connections, waits (up to ctx's deadline) for in-flight requests to
// drain, then flushes a final metrics snapshot to the structured log.
func (s *Server) Shutdown(ctx context.Context) error {
	s.log.Info("congressd shutting down, draining in-flight requests")
	err := s.http.Shutdown(ctx)
	m := s.b.Metrics()
	lat := s.met.all.Snapshot()
	s.log.Info("final metrics",
		slog.Int64("answers_served", m.Answer.Count),
		slog.Int64("estimates_served", m.Estimate.Count),
		slog.Int64("maintainer_inserts", m.MaintainerInserts),
		slog.Int64("requests_total", lat.Count),
		slog.Int64("requests_shed", s.met.shed.Load()),
		slog.Int64("panics_recovered", s.met.panics.Load()),
		slog.Duration("latency_p50", lat.Quantile(0.5)),
		slog.Duration("latency_p95", lat.Quantile(0.95)),
		slog.Duration("latency_p99", lat.Quantile(0.99)),
	)
	return err
}

// effectiveTimeout resolves a request's deadline: its timeout_ms
// (clamped to MaxTimeout) or DefaultTimeout.
func (s *Server) effectiveTimeout(timeoutMS int64) time.Duration {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.opts.MaxTimeout {
			d = s.opts.MaxTimeout
		}
	}
	return d
}

// requestCtx derives the execution context for one request: the client
// disconnect is inherited from r, and the deadline is effectiveTimeout.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.effectiveTimeout(timeoutMS))
}

// statusWriter captures the status code and byte count for logging and
// metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// instrument wraps a handler with panic recovery, in-flight accounting,
// latency observation under the route's own histogram, and one
// structured log line per request.
func (s *Server) instrument(route string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	s.met.addRoute(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-Id", fmt.Sprint(id))
		start := time.Now()
		s.met.inFlight.Add(1)
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				s.log.Error("panic recovered",
					slog.Int64("request_id", id),
					slog.String("route", route),
					slog.Any("panic", p),
					slog.String("stack", string(debug.Stack())),
				)
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal", "internal server error")
				}
			}
			dur := time.Since(start)
			s.met.inFlight.Add(-1)
			s.met.observe(route, sw.status, dur)
			lvl := slog.LevelInfo
			if sw.status >= 500 {
				lvl = slog.LevelError
			}
			s.log.LogAttrs(r.Context(), lvl, "request",
				slog.Int64("request_id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Int("bytes", sw.bytes),
				slog.String("remote", r.RemoteAddr),
				slog.Duration("duration", dur),
			)
		}()
		h(sw, r)
	})
}

// admit runs the admission gate, writing the 429/timeout response itself
// when the request cannot proceed. Callers must invoke release() (when
// ok) after finishing their work.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) (release func(), ok bool) {
	release, err := s.adm.acquire(ctx)
	if err == nil {
		return release, true
	}
	if errors.Is(err, errSaturated) {
		s.met.shed.Add(1)
		w.Header().Set("Retry-After", fmt.Sprint(int(s.opts.RetryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests, "overloaded", "server overloaded, retry later")
		return nil, false
	}
	s.writeMappedError(w, err, http.StatusServiceUnavailable, "internal")
	return nil, false
}

// admitWithDeadline runs the admission gate under its own wait window —
// min(the request's timeout, MaxQueueWait) — and only then starts the
// engine deadline, so time spent queued behind busy workers is not
// double-counted against the request's timeout: a queued request with a
// generous timeout used to 504 spuriously under burst because one window
// covered both the wait and the work. The flip side is that end-to-end
// time can exceed the client's timeout_ms by the queue wait; clients
// needing a hard wall-clock bound should set a transport timeout, and
// operators can tighten MaxQueueWait (see Options). The returned context
// carries a fresh full deadline; its cancel also releases the worker
// slot. ok=false means the response was written.
func (s *Server) admitWithDeadline(w http.ResponseWriter, r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc, bool) {
	wait := s.effectiveTimeout(timeoutMS)
	if wait > s.opts.MaxQueueWait {
		wait = s.opts.MaxQueueWait
	}
	waitCtx, waitCancel := context.WithTimeout(r.Context(), wait)
	release, ok := s.admit(waitCtx, w)
	waitCancel()
	if !ok {
		return nil, nil, false
	}
	ctx, cancel := s.requestCtx(r, timeoutMS)
	return ctx, func() {
		cancel()
		release()
	}, true
}

// ----- backend -----

// Backend is everything the server asks of the warehouse it fronts.
// *congress.Warehouse and *congress.Coordinator both satisfy it, so the
// direct-estimation, partials, insert, synopsis and metrics paths are
// written once. What only one backend can do is an optional capability
// the handlers check for: sqlBackend, durableBackend, shardMetrics.
type Backend interface {
	TableColumns(table string) ([]engine.Column, error)
	InsertRows(ctx context.Context, table string, rows []congress.Row) (int, error)
	RefreshSynopsis(table string) error
	EstimateQueryOpts(ctx context.Context, table string, grouping []string, agg estimate.Aggregate, aggCol string, confidence float64, opts congress.ApproxOptions) ([]estimate.GroupEstimate, congress.CacheStatus, error)
	EstimatePartialsOpts(ctx context.Context, table string, grouping []string, aggCol string, opts congress.PartialsOptions) ([]estimate.GroupPartial, error)
	Synopses() []congress.SynopsisInfo
	AllocationTable(table string) ([]congress.AllocationRow, error)
	Metrics() congress.MetricsSnapshot
}

// sqlBackend executes SQL: only a single warehouse holds whole base
// relations (and their sample relations) to run a query against.
type sqlBackend interface {
	ApproxQuery(ctx context.Context, sql string, opts congress.ApproxOptions) (*congress.Result, congress.CacheStatus, error)
	QueryCtx(ctx context.Context, sql string) (*congress.Result, error)
}

// durableBackend can own a data directory. PersistStats reports false
// when it was opened without one.
type durableBackend interface {
	PersistStats() (congress.PersistStats, bool)
	TriggerSnapshot() error
}

// shardMetrics is a backend that fans out over shards and renders its
// per-shard counters for /metrics.
type shardMetrics interface {
	RenderShardMetrics(sb *strings.Builder)
}

// ----- handlers -----

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req client.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if (req.SQL == "") == (req.Estimate == nil) {
		writeError(w, http.StatusBadRequest, "bad_query", "exactly one of sql or estimate must be set")
		return
	}
	ctx, cancel, ok := s.admitWithDeadline(w, r, req.TimeoutMS)
	if !ok {
		return
	}
	defer cancel()
	if s.onExecute != nil {
		s.onExecute()
	}

	start := time.Now()
	var (
		res    *congress.Result
		ests   []estimate.GroupEstimate
		status congress.CacheStatus
		err    error
	)
	if e := req.Estimate; e != nil {
		var agg estimate.Aggregate
		if agg, err = parseAggregate(e.Agg); err != nil {
			writeError(w, http.StatusBadRequest, "bad_query", err.Error())
			return
		}
		ests, status, err = s.b.EstimateQueryOpts(ctx, e.Table, e.GroupBy, agg, e.Column, e.Confidence,
			congress.ApproxOptions{NoCache: req.NoCache, NoHybrid: req.NoHybrid})
		if err != nil {
			s.writeMappedError(w, err, http.StatusBadRequest, "bad_query")
			return
		}
	} else {
		sq, ok := s.b.(sqlBackend)
		if !ok {
			writeError(w, http.StatusBadRequest, "bad_query",
				"a coordinator answers estimate requests only; SQL queries need a single warehouse")
			return
		}
		opts := congress.ApproxOptions{NoCache: req.NoCache}
		if req.Rewrite != "" {
			if opts.Rewrite, err = congress.ParseRewriteStrategy(req.Rewrite); err != nil {
				s.writeMappedError(w, err, http.StatusBadRequest, "bad_query")
				return
			}
			opts.UseRewrite = true
		}
		if res, status, err = sq.ApproxQuery(ctx, req.SQL, opts); err != nil {
			s.writeMappedError(w, err, http.StatusBadRequest, "bad_query")
			return
		}
	}
	w.Header().Set(client.CacheHeader, status.String())
	writeQueryReply(w, res, ests, float64(time.Since(start))/float64(time.Millisecond), status.String())
}

func (s *Server) handleExact(w http.ResponseWriter, r *http.Request) {
	var req client.ExactRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "sql is required")
		return
	}
	sq, ok := s.b.(sqlBackend)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad_query",
			"a coordinator has no merged base tables; /v1/exact needs a single warehouse")
		return
	}
	ctx, cancel, ok := s.admitWithDeadline(w, r, req.TimeoutMS)
	if !ok {
		return
	}
	defer cancel()
	if s.onExecute != nil {
		s.onExecute()
	}

	start := time.Now()
	res, err := sq.QueryCtx(ctx, req.SQL)
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest, "bad_query")
		return
	}
	writeQueryReply(w, res, nil, float64(time.Since(start))/float64(time.Millisecond), "")
}

// rejectOnFollower answers writes with 503 + a Leader hint on follower
// servers. 503 (not 4xx) because the request is valid — this replica
// just cannot take it; clients fail over or follow the hint.
func (s *Server) rejectOnFollower(w http.ResponseWriter) bool {
	if s.opts.Follower == nil {
		return false
	}
	w.Header().Set("Leader", s.opts.Follower.Leader())
	writeError(w, http.StatusServiceUnavailable, "read_only_follower",
		"this congressd is a replication follower; send writes to the leader (see the Leader header)")
	return true
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	var req client.InsertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Empty rows with refresh=true is a pure refresh request — the form a
	// coordinator fans out to re-materialize every shard's sample.
	if req.Table == "" || (len(req.Rows) == 0 && !req.Refresh) {
		writeError(w, http.StatusBadRequest, "bad_request", "table and rows are required")
		return
	}
	ctx, cancel, ok := s.admitWithDeadline(w, r, 0)
	if !ok {
		return
	}
	defer cancel()

	cols, err := s.b.TableColumns(req.Table)
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest, "bad_request")
		return
	}
	// Decode and type-check the whole batch before applying any of it: a
	// malformed row means nothing was inserted, on every backend.
	rows := make([]congress.Row, len(req.Rows))
	for ri, raw := range req.Rows {
		if len(raw) != len(cols) {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("row %d has %d values, table %q has %d columns (0 rows inserted)",
					ri, len(raw), req.Table, len(cols)))
			return
		}
		row := make(congress.Row, len(raw))
		for i, rv := range raw {
			if row[i], err = engine.ParseJSONValue(rv, cols[i].Kind); err != nil {
				writeError(w, http.StatusBadRequest, "bad_request",
					fmt.Sprintf("row %d column %q: %v (0 rows inserted)", ri, cols[i].Name, err))
				return
			}
		}
		rows[ri] = row
	}
	inserted, err := s.b.InsertRows(ctx, req.Table, rows)
	if err != nil {
		s.writeMappedError(w, fmt.Errorf("%w (%d rows inserted before failure)", err, inserted),
			http.StatusBadRequest, "bad_request")
		return
	}
	resp := client.InsertResponse{Inserted: inserted}
	if req.Refresh {
		if err := s.b.RefreshSynopsis(req.Table); err != nil {
			s.writeMappedError(w, err, http.StatusInternalServerError, "internal")
			return
		}
		resp.Refreshed = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePartials serves the distributed scatter-gather leg: one
// estimation scan returning the mergeable per-group sufficient
// statistics, no confidence interval (the coordinator takes it once
// after merging). Served in every mode — a coordinator can itself be a
// leg of a higher-tier coordinator — and on followers too (read-only).
// The reply is the binary frame iff the caller's Accept names it, which
// coordinators do; errors are the JSON envelope either way.
func (s *Server) handlePartials(w http.ResponseWriter, r *http.Request) {
	var req client.PartialsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Table == "" || req.Column == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "table and column are required")
		return
	}
	ctx, cancel, ok := s.admitWithDeadline(w, r, req.TimeoutMS)
	if !ok {
		return
	}
	defer cancel()
	if s.onExecute != nil {
		s.onExecute()
	}

	start := time.Now()
	parts, err := s.b.EstimatePartialsOpts(ctx, req.Table, req.GroupBy, req.Column,
		congress.PartialsOptions{NoHybrid: req.NoHybrid})
	if err != nil {
		s.writeMappedError(w, err, http.StatusBadRequest, "bad_query")
		return
	}
	elapsedMS := float64(time.Since(start)) / float64(time.Millisecond)
	if strings.Contains(r.Header.Get("Accept"), estimate.PartialsContentType) {
		frame := estimate.EncodePartials(parts, elapsedMS)
		w.Header().Set("Content-Type", estimate.PartialsContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
		w.Write(frame)
		return
	}
	writeJSON(w, http.StatusOK, client.PartialsResponse{Partials: parts, ElapsedMS: elapsedMS})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w) {
		return
	}
	_, cancel, ok := s.admitWithDeadline(w, r, 0)
	if !ok {
		return
	}
	defer cancel()

	d, ok := s.b.(durableBackend)
	if !ok {
		writeError(w, http.StatusConflict, "not_persistent",
			"a coordinator holds no data directory of its own: each shard congressd owns its -data-dir (snapshot those)")
		return
	}
	if _, enabled := d.PersistStats(); !enabled {
		writeError(w, http.StatusConflict, "not_persistent",
			"server runs without a data directory; start congressd with -data-dir to enable snapshots")
		return
	}
	if err := d.TriggerSnapshot(); err != nil {
		s.writeMappedError(w, err, http.StatusInternalServerError, "internal")
		return
	}
	ps, _ := d.PersistStats()
	writeJSON(w, http.StatusOK, client.SnapshotResponse{
		Dir:        ps.Dir,
		Generation: ps.Generation,
		Fsync:      ps.Fsync.String(),
	})
}

func (s *Server) handleSynopses(w http.ResponseWriter, r *http.Request) {
	withAlloc := r.URL.Query().Get("allocation") != ""
	infos := s.b.Synopses()
	resp := client.SynopsesResponse{Synopses: make([]client.SynopsisInfo, 0, len(infos))}
	for _, si := range infos {
		ci := client.SynopsisInfo{
			Table:          si.Table,
			GroupBy:        si.GroupBy,
			Strategy:       si.Strategy,
			Space:          si.Space,
			SampleSize:     si.SampleSize,
			Strata:         si.Strata,
			PendingInserts: si.PendingInserts,
			Shards:         si.Shards,
		}
		// Ship the table schema so a distributed coordinator can discover
		// it and verify every shard agrees before serving.
		if cols, err := s.b.TableColumns(si.Table); err == nil {
			ci.Columns = make([]client.ColumnSpec, len(cols))
			for i, c := range cols {
				ci.Columns[i] = client.ColumnSpec{Name: c.Name, Kind: c.Kind.String()}
			}
		}
		if withAlloc {
			rows, err := s.b.AllocationTable(si.Table)
			if err == nil {
				ci.Allocation = make([]client.AllocationRow, len(rows))
				for i, ar := range rows {
					ci.Allocation[i] = client.AllocationRow{
						Group:      ar.Group,
						Population: ar.Population,
						PreScale:   ar.PreScale,
						Target:     ar.Target,
						Actual:     ar.Actual,
					}
				}
			}
		}
		resp.Synopses = append(resp.Synopses, ci)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var sb strings.Builder
	// Every backend's own engine counters: behind a coordinator these are
	// the coordinator-level ones (hybrid residual composition); the shard
	// processes expose theirs on their own /metrics.
	sb.WriteString(s.b.Metrics().String())
	if sh, ok := s.b.(shardMetrics); ok {
		sh.RenderShardMetrics(&sb)
	}
	if d, ok := s.b.(durableBackend); ok {
		if ps, ok := d.PersistStats(); ok {
			fmt.Fprintf(&sb, "persist_generation %d\n", ps.Generation)
			fmt.Fprintf(&sb, "persist_wal_durable_offset %d\n", ps.DurableWALOffset)
			fmt.Fprintf(&sb, "persist_wal_record_seq %d\n", ps.RecordSeq)
		}
	}
	if s.opts.ReplLeader != nil {
		s.opts.ReplLeader.RenderMetrics(&sb)
	}
	if s.opts.Follower != nil {
		s.opts.Follower.RenderMetrics(&sb)
	}
	s.met.render(&sb, s.adm.depth())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(sb.String()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"status": "ok", "role": s.replRole()}
	if f := s.opts.Follower; f != nil {
		st := f.Status()
		resp["lag_records"] = st.LagRecords
		resp["lag_seconds"] = st.LagSeconds
		resp["caught_up"] = st.CaughtUp
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) replRole() string {
	switch {
	case s.opts.Follower != nil:
		return "follower"
	case s.opts.ReplLeader != nil:
		return "leader"
	case s.opts.Coordinator != nil:
		return "coordinator"
	default:
		return "standalone"
	}
}

// handleReplStatus reports the server's replication role and progress;
// standalone servers answer too, so probes can discover topology
// uniformly.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.opts.Follower != nil:
		writeJSON(w, http.StatusOK, s.opts.Follower.Status())
	case s.opts.ReplLeader != nil:
		writeJSON(w, http.StatusOK, s.opts.ReplLeader.Status())
	default:
		writeJSON(w, http.StatusOK, map[string]string{"role": "standalone"})
	}
}

// ----- helpers -----

// decodeBody parses the JSON request body, writing a 400 on failure.
// Numbers in untyped fields (insert rows) stay json.Number, the form
// engine.ParseJSONValue reads exactly.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.UseNumber()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

// statusCanceledClient is the nginx-convention status for "client closed
// request"; nothing standard fits a caller that went away.
const statusCanceledClient = 499

// writeMappedError classifies err via the typed sentinels and writes the
// matching status; unrecognized errors fall back to the given status and
// code (400/bad_query on the query paths — executing a user-supplied
// query, remaining failures are the query's fault; 500 only for true
// internal failures and recovered panics).
func (s *Server) writeMappedError(w http.ResponseWriter, err error, fallback int, fallbackCode string) {
	status, code := fallback, fallbackCode
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		status, code = statusCanceledClient, "canceled"
	case errors.Is(err, aqua.ErrNoSynopsis):
		status, code = http.StatusNotFound, "no_synopsis"
	case errors.Is(err, engine.ErrUnknownTable):
		status, code = http.StatusNotFound, "unknown_table"
	case errors.Is(err, aqua.ErrBadQuery):
		status, code = http.StatusBadRequest, "bad_query"
	case errors.Is(err, congress.ErrShardUnavailable):
		status, code = http.StatusServiceUnavailable, "shard_unavailable"
	}
	writeError(w, status, code, err.Error())
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, client.ErrorBody{Error: msg, Code: code})
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(body)
}

// parseAggregate resolves the estimate aggregate name.
func parseAggregate(s string) (estimate.Aggregate, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sum":
		return estimate.Sum, nil
	case "count":
		return estimate.Count, nil
	case "avg":
		return estimate.Avg, nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q (want sum|count|avg)", s)
	}
}
