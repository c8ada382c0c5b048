package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/persist"
	"github.com/approxdb/congress/pkg/client"
)

// metricValue is one reported number. Spread, where a run can measure
// one, is the quartile spread of the sub-measurements the value is the
// median of (windows of a pass, repeated set-ups).
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// result is one run of one workload: either the end-to-end pass
// (tracing off) or the traced pass.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Clients   int                    `json:"clients"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Detail is everything measured that is not a contract metric.
	Pass        *passStats            `json:"pass,omitempty"`
	SetupS      []float64             `json:"setup_s_each,omitempty"`
	Stages      []stageRow            `json:"stages,omitempty"`
	Predictions map[string]bool       `json:"predictions,omitempty"`
	Notes       []string              `json:"notes,omitempty"`
	Schedule    string                `json:"schedule_sha256"`
	Lag         *followerLag          `json:"follower_lag,omitempty"`
	Recovery    *recoveryCheck        `json:"recovery,omitempty"`
	Snapshots   []snapshotLog         `json:"snapshots,omitempty"`
	TracedKinds map[string]tracedKind `json:"traced_kinds,omitempty"`
}

// failedFrac is the share of attempted ops that failed.
func (r *result) failedFrac() float64 { return float64(r.Failed) / float64(max(r.Attempted, 1)) }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// incorrect records a failed output check.
func (r *result) incorrect(format string, args ...any) {
	r.Correct = false
	r.note("INCORRECT: "+format, args...)
}

type runConfig struct {
	wl      workloadDef
	seed    int64
	seconds int
	clients int
	outDir  string
	// window is the measured window, seconds long; the smoke tests
	// shorten it.
	window time.Duration
}

// warmup is a sixth of the window: the 5 s to 30 s the workloads were
// designed with.
func (rc runConfig) warmup() time.Duration { return rc.window / 6 }

// env is a started topology with everything a pass over it needs.
type env struct {
	rc      runConfig
	t       *topology
	sched   *schedule
	chk     *checker
	single  *congress.Warehouse // dist_estimate: the whole table in one warehouse
	acked   atomic.Int64        // rows the serving warehouse acknowledged
	setupsS []float64
}

// start sets the topology up (repeats times, keeping the last),
// generates the schedule and computes the exact answers.
func start(rc runConfig, repeats int) (e *env, err error) {
	e = &env{rc: rc}
	defer func() {
		if err != nil && e.t != nil {
			e.t.close()
		}
	}()
	for i := 0; i < repeats; i++ {
		if e.t != nil {
			if err := e.t.close(); err != nil {
				return nil, err
			}
		}
		if e.t, err = setupTopology(rc.wl, filepath.Join(rc.outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), i))); err != nil {
			return nil, err
		}
		e.setupsS = append(e.setupsS, e.t.setupS)
	}
	if e.sched, err = buildSchedule(rc.wl, rc.seed, rc.clients, e.t.rel); err != nil {
		return nil, err
	}
	truthOn := e.t.wh
	if rc.wl.Name == "dist_estimate" {
		e.single = congress.Open()
		if _, err = e.single.AttachRelation(e.t.rel); err != nil {
			return nil, err
		}
		if err = e.single.BuildSynopsis(synopsisSpec(e.t.rel.NumRows())); err != nil {
			return nil, err
		}
		truthOn = e.single
	}
	if e.chk, err = newChecker(truthOn, e.sched.Truths); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() error { return e.t.close() }

func (e *env) newResult(traced bool) *result {
	fp, _ := e.sched.fingerprint()
	return &result{
		Workload: e.rc.wl.Name, Seed: e.rc.seed, Seconds: e.rc.seconds, Clients: e.rc.clients,
		Traced: traced, Correct: true, Metrics: map[string]metricValue{}, Schedule: fp,
	}
}

// settle runs a garbage collection to completion and flushes the
// operating system's dirty pages, so that a pass starts from the same
// state whatever ran before it.
//
// The collection matters most to the traced pass. A rung's pass lasts a
// fraction of a second, less than one collection of the traced run's
// heap (the serving tables plus the twins), so a collection that
// happens to start during a pass taxes most of its ops with mark
// assists and moves that rung's median, not the others'. Collecting
// before every pass puts the next collection a heap-doubling away.
//
// The flush matters to the durable workloads. Set-up writes snapshots
// and removes the previous set-up's files; on a journalled file system
// a later fsync waits for whatever is dirty at the time, so without the
// flush the first seconds of the window pay for set-up's writes.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// runEndToEnd is the --trace 0 run: three set-ups, a warm-up, the
// measured window with tracing off, and the output checks.
func runEndToEnd(ctx context.Context, rc runConfig) (*result, error) {
	e, err := start(rc, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res := e.newResult(false)
	res.SetupS = e.setupsS

	clients := make([]*loadClient, len(e.sched.Clients))
	for i, ops := range e.sched.Clients {
		clients[i] = e.newLoadClient(ops)
	}
	defer func() {
		for _, lc := range clients {
			lc.done()
		}
	}()
	settle() // the discarded set-ups are garbage by now; collect it outside the window
	for _, samples := range runFor(ctx, clients, rc.warmup()) {
		for _, s := range samples {
			if !s.ok {
				res.Failed++
			}
			res.Attempted++
		}
	}
	opr := startOperator(ctx, e.t, rc.window)
	perClient := runFor(ctx, clients, rc.window)
	opr.stop()
	ps := summarize(perClient, rc.window, rc.wl)
	res.Pass = &ps
	res.Attempted += ps.Attempted
	res.Failed += ps.Failed
	res.Lag, res.Snapshots = opr.lag(), opr.snapshots
	if len(res.Snapshots) > 0 {
		res.note("snapshot_stall_ms %.2f: the largest ins latency that overlaps one of %d snapshots", snapshotStallMS(perClient, res.Snapshots), len(res.Snapshots))
	}

	prim, ok := ps.Kinds[rc.wl.primary]
	if !ok {
		return nil, fmt.Errorf("bench: %s completed no %s op", rc.wl.Name, rc.wl.primary)
	}
	res.Metrics["ops_per_s"] = metricValue{Value: ps.OpsPerS, Unit: "1/s", Spread: ps.OpsSpread}
	res.Metrics["p50_ms"] = metricValue{Value: prim.P50MS, Unit: "ms", Spread: ps.P50Spread}
	res.Metrics["tail_ms"] = metricValue{Value: prim.TailMS, Unit: "ms", Spread: ps.TailSpread}
	res.Metrics["setup_s"] = metricValue{Value: median(e.setupsS), Unit: "s", Spread: quartileSpread(e.setupsS)}
	if prim.TailPct != rc.wl.tailPct {
		res.note("tail_ms is p%g: p%g had fewer than %d of %d samples beyond it", prim.TailPct, rc.wl.tailPct, minBeyond, prim.N)
	}
	if rc.wl.Name == "dashboard_rw" && ps.CacheHitFrac >= 0.4 && ps.CacheHitFrac <= 0.6 {
		res.incorrect("cache_hit_frac %.3f lies in 0.4-0.6: p50_ms sits on the boundary between the hit and the miss path", ps.CacheHitFrac)
	}
	e.finalChecks(ctx, res)
	return res, nil
}

// finalChecks are the output checks that run once, after the window.
func (e *env) finalChecks(ctx context.Context, res *result) {
	if len(e.sched.Final) > 0 {
		lc := e.newLoadClient(e.sched.Final)
		for range e.sched.Final {
			res.Attempted++
			if s := lc.do(ctx, time.Now()); !s.ok {
				res.Failed++
			}
		}
		lc.done()
	}
	switch e.rc.wl.Name {
	case "dist_estimate":
		attempted, failed, err := checkDistributed(ctx, e.t, e.single)
		res.Attempted += attempted
		res.Failed += failed
		if err != nil {
			res.incorrect("%v", err)
		}
	case "ingest_durable":
		e.checkReplicaAndRecovery(ctx, res)
	}
	if e.rc.wl.readOnly {
		cover := e.chk.boundCoverFrac()
		res.note("group_err_mean_pct %.4f  bound_cover_frac %.4f (confidence %.2f)", e.chk.groupErrMeanPct(), cover, confidence)
		if cover < coverFloor {
			res.incorrect("bound_cover_frac %.4f is below the floor %.2f", cover, coverFloor)
		}
	}
	if e.chk.checked.Load() == 0 {
		res.incorrect("no reply went through the output check")
	}
	if res.Failed > 0 {
		res.incorrect("%d of %d ops failed: %s", res.Failed, res.Attempted, strings.Join(e.chk.failures, "; "))
	}
}

type recoveryCheck struct {
	AckedRows     int64   `json:"acked_rows"`
	RecoveredRows int     `json:"recovered_rows"`
	WantRows      int64   `json:"want_rows"`
	RecoverS      float64 `json:"recover_s"`
	CatchupS      float64 `json:"follower_catchup_s"`
}

// checkReplicaAndRecovery waits for the follower, requires its
// estimates to equal the leader's, then crashes a copy of the leader:
// the data directory is copied without Close, the copy's open WAL
// segment is cut at the leader's durable watermark (a copy also sees
// what the operating system had not flushed; the cut discards it), and
// the copy must recover every acknowledged row.
func (e *env) checkReplicaAndRecovery(ctx context.Context, res *result) {
	rec := &recoveryCheck{AckedRows: e.acked.Load()}
	res.Recovery = rec
	rec.WantRows = int64(e.rc.wl.rows) + rec.AckedRows

	leaderTbl, err := e.t.wh.Table(tableName)
	if err != nil {
		res.incorrect("%v", err)
		return
	}
	wait := time.Now()
	for {
		ftbl, err := e.t.followerWH.Table(tableName)
		if err == nil && ftbl.NumRows() == leaderTbl.NumRows() && e.t.follower.Status().LagRecords == 0 {
			break
		}
		if time.Since(wait) > 60*time.Second || ctx.Err() != nil {
			res.incorrect("follower did not catch up: %+v", e.t.follower.Status())
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec.CatchupS = time.Since(wait).Seconds()

	lc, ldone := newClient(e.t.endpoint)
	fc, fdone := newClient(e.t.followerURL)
	defer ldone()
	defer fdone()
	for _, g := range groupings {
		for _, noHybrid := range []bool{true, false} {
			req := client.QueryRequest{
				Estimate: &client.EstimateRequest{Table: tableName, GroupBy: g, Agg: "sum", Column: aggColumn, Confidence: confidence},
				NoCache:  true, NoHybrid: noHybrid,
			}
			res.Attempted++
			lresp, err := lc.Query(ctx, req)
			var fresp *client.QueryResponse
			if err == nil {
				fresp, err = fc.Query(ctx, req)
			}
			if err == nil {
				want := make([]estimate.GroupEstimate, len(lresp.Groups))
				for i, lg := range lresp.Groups {
					want[i] = estimate.GroupEstimate{Key: strings.Join(lg.Group, congress.EstimateKeySep), Value: lg.Value, Bound: lg.Bound, SampleN: lg.SampleN}
				}
				err = sameEstimates(fresp.Groups, want)
			}
			if err != nil {
				res.Failed++
				res.incorrect("follower vs leader %v no_hybrid=%t: %v", g, noHybrid, err)
			}
		}
	}

	stats, _ := e.t.wh.PersistStats()
	crashDir := filepath.Join(e.t.dir, "crash")
	if err := copyDir(stats.Dir, crashDir); err != nil {
		res.incorrect("copying the data directory: %v", err)
		return
	}
	if err := os.Truncate(persist.WALPath(crashDir, stats.Generation), stats.DurableWALOffset); err != nil {
		res.incorrect("cutting the copied WAL at the durable watermark: %v", err)
		return
	}
	t0 := time.Now()
	rw, _, err := congress.OpenDir(crashDir, congress.PersistOptions{Fsync: congress.FsyncNone})
	if err != nil {
		res.incorrect("recovering the copied data directory: %v", err)
		return
	}
	rec.RecoverS = time.Since(t0).Seconds()
	defer rw.Close()
	if tbl, err := rw.Table(tableName); err == nil {
		rec.RecoveredRows = tbl.NumRows()
	}
	if short := rec.WantRows - int64(rec.RecoveredRows); short != 0 {
		// A shortfall counts as failed ops, one per lost batch.
		res.Failed += int((abs64(short) + batchRows - 1) / batchRows)
		res.incorrect("recovered %d rows, want %d (%d acknowledged)", rec.RecoveredRows, rec.WantRows, rec.AckedRows)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ----- the operator: snapshots and follower-lag polling -----

type snapshotLog struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	Error  string  `json:"error,omitempty"`
}

type followerLag struct {
	Polls      int     `json:"polls"`
	P50Records float64 `json:"p50_records"`
	MaxRecords float64 `json:"max_records"`
}

// operator is what runs beside the load on ingest_durable: a
// POST /v1/snapshot in the middle of every second rate window, so
// that background work completes three cycles per pass, and a poll of
// the follower's /v1/repl/status every 100 ms. On other workloads it
// does nothing.
type operator struct {
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	epoch     time.Time
	mu        sync.Mutex
	snapshots []snapshotLog
	lags      []float64
}

func startOperator(ctx context.Context, t *topology, window time.Duration) *operator {
	o := &operator{epoch: time.Now()}
	ctx, o.cancel = context.WithCancel(ctx)
	if t.follower == nil {
		return o
	}
	o.wg.Add(2)
	go func() {
		defer o.wg.Done()
		c, done := newClient(t.endpoint)
		defer done()
		for cycle := 0; cycle < 3; cycle++ {
			at := window * time.Duration(4*cycle+3) / (4 * 3) // 1/4, 7/12, 11/12 of the window
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(o.epoch.Add(at))):
			}
			log := snapshotLog{StartS: time.Since(o.epoch).Seconds()}
			if _, err := c.Snapshot(ctx); err != nil {
				log.Error = err.Error()
			}
			log.EndS = time.Since(o.epoch).Seconds()
			o.mu.Lock()
			o.snapshots = append(o.snapshots, log)
			o.mu.Unlock()
		}
	}()
	go func() {
		defer o.wg.Done()
		c, done := newClient(t.followerURL)
		defer done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			st, err := c.ReplStatus(ctx)
			if err != nil {
				continue
			}
			o.mu.Lock()
			o.lags = append(o.lags, float64(st.LagRecords))
			o.mu.Unlock()
		}
	}()
	return o
}

func (o *operator) stop() {
	o.cancel()
	o.wg.Wait()
}

func (o *operator) lag() *followerLag {
	if len(o.lags) == 0 {
		return nil
	}
	s := sortedCopy(o.lags)
	return &followerLag{Polls: len(s), P50Records: percentile(s, 50), MaxRecords: s[len(s)-1]}
}

// snapshotStallMS is the largest ins latency that overlaps a snapshot.
func snapshotStallMS(perClient [][]sample, snaps []snapshotLog) float64 {
	var worst float64
	for _, samples := range perClient {
		for _, s := range samples {
			if s.kind != kindIns {
				continue
			}
			for _, sn := range snaps {
				if s.start.Seconds() < sn.EndS && s.end.Seconds() > sn.StartS && s.ms() > worst {
					worst = s.ms()
				}
			}
		}
	}
	return worst
}
