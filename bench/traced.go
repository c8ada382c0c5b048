package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/aqua"
	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/rewrite"
	"github.com/approxdb/congress/internal/sqlparse"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/pkg/client"
)

// twins are bench-owned copies of the serving state that the deeper
// rungs call into. A Warehouse keeps its Aqua private and a durable
// warehouse cannot shed its WAL, so the rungs below the facade run on
// copies built from the same table, spec and seed.
type twins struct {
	aq   *aqua.Aqua          // sql: aqua.AnswerQuery and the leaf calls
	none *congress.Warehouse // ins: durable with fsync=none
	mem  *congress.Warehouse // ins: not durable
	cube *datacube.Cube      // ins: the exact cube alone
	// cubeMeasures are the ordinals of the columns the cube tracks.
	cubeMeasures []int
	closers      []func() error
}

func (tw *twins) close() {
	for i := len(tw.closers) - 1; i >= 0; i-- {
		tw.closers[i]()
	}
}

func buildTwins(e *env, kinds map[string]bool) (*twins, error) {
	tw := &twins{}
	wl := e.rc.wl
	spec := synopsisSpec(wl.rows)
	// Reads leave the table alone, so a read-only workload's twin can
	// share it; inserts mutate it, so each twin then needs its own.
	table := func() (*engine.Relation, error) {
		if !kinds[kindIns] {
			return e.t.rel, nil
		}
		return generateTable(wl)
	}
	if kinds[kindSQL] {
		rel, err := table()
		if err != nil {
			return nil, err
		}
		cat := engine.NewCatalog()
		cat.Register(rel)
		tw.aq = aqua.New(cat)
		tw.aq.EnableResultCache(congress.DefaultCacheEntries, congress.DefaultCacheBytes)
		if _, err := tw.aq.CreateSynopsis(aqua.Config{
			Table: spec.Table, GroupCols: spec.GroupBy, Strategy: spec.Strategy, Space: spec.Space,
			Rewrite: spec.Rewrite, BuildWorkers: spec.BuildWorkers, Seed: spec.Seed,
		}); err != nil {
			return nil, err
		}
	}
	if kinds[kindIns] {
		for _, durable := range []bool{true, false} {
			rel, err := table()
			if err != nil {
				return nil, err
			}
			w := congress.Open()
			if durable {
				dir := filepath.Join(e.t.dir, "twin-fsync-none")
				if w, _, err = congress.OpenDir(dir, congress.PersistOptions{Fsync: congress.FsyncNone}); err != nil {
					return nil, err
				}
				tw.closers = append(tw.closers, w.Close)
				tw.none = w
			} else {
				tw.mem = w
			}
			if _, err := w.AttachRelation(rel); err != nil {
				return nil, err
			}
			if err := w.BuildSynopsis(spec); err != nil {
				return nil, err
			}
		}
		// The cube a synopsis feeds: its grouping set, and every numeric
		// column as a measure.
		var measures []string
		for i, col := range e.t.rel.Schema.Cols {
			switch col.Kind {
			case engine.KindInt, engine.KindFloat, engine.KindDate, engine.KindBool:
				measures = append(measures, col.Name)
				tw.cubeMeasures = append(tw.cubeMeasures, i)
			}
		}
		var err error
		if tw.cube, err = datacube.NewWithMeasures(tpcd.GroupingAttrs, measures); err != nil {
			return nil, err
		}
	}
	return tw, nil
}

// counters are the counts read at the layer boundaries around a pass.
type counters struct {
	m        congress.MetricsSnapshot // summed over the serving warehouses
	residual int64
	vec, fb  int64
	text     map[string]float64 // summed /metrics series of every server
}

func (e *env) readCounters(ctx context.Context) counters {
	var c counters
	c.vec, c.fb = engine.ExecCounts()
	whs := e.t.shards
	if e.t.wh != nil {
		whs = []*congress.Warehouse{e.t.wh}
	}
	for _, w := range whs {
		m := w.Metrics()
		c.m.CacheHits += m.CacheHits
		c.m.CacheMisses += m.CacheMisses
		c.m.CacheEvictions += m.CacheEvictions
		c.m.HybridExact += m.HybridExact
		c.m.HybridFallback += m.HybridFallback
		c.m.Answer.Count += m.Answer.Count
		c.m.Estimate.Count += m.Estimate.Count
		c.m.WALRecords += m.WALRecords
		c.m.WALBytes += m.WALBytes
		c.m.Snapshots.Count += m.Snapshots.Count
		c.m.Snapshots.Total += m.Snapshots.Total
		c.m.SnapshotBytes += m.SnapshotBytes
	}
	if e.t.co != nil {
		c.residual = e.t.co.Metrics().HybridResidual
	}
	c.text = map[string]float64{}
	for _, url := range append([]string{e.t.endpoint}, e.t.shardURLs...) {
		cl, done := newClient(url)
		body, err := cl.Metrics(ctx)
		done()
		if err != nil {
			continue
		}
		for _, line := range strings.Split(body, "\n") {
			name, val, ok := parseMetricLine(line)
			if ok {
				c.text[name] += val
			}
		}
	}
	return c
}

// parseMetricLine splits one exposition line into its series name
// (labels kept, so routes stay distinguishable) and value.
func parseMetricLine(line string) (string, float64, bool) {
	i := strings.LastIndexByte(line, ' ')
	if i <= 0 || strings.HasPrefix(line, "#") {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return "", 0, false
	}
	return line[:i], v, true
}

// sumSeries adds every series of text whose name starts with prefix.
func sumSeries(text map[string]float64, prefix string) float64 {
	var sum float64
	for name, v := range text {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// runTraced is the --trace 1 run: one set-up, an untraced one-client
// pass, the same number of ops again with a span around each round
// trip, and then those ops replayed at each deeper rung.
func runTraced(ctx context.Context, rc runConfig) (*result, error) {
	e, err := start(rc, 1)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res := e.newResult(true)
	ops := e.sched.Clients[0]
	kinds := map[string]bool{}
	for i := range ops[:min(len(ops), 4*tracedOpsMax)] {
		kinds[ops[i].Kind] = true
	}
	tw, err := buildTwins(e, kinds)
	if err != nil {
		return nil, err
	}
	defer tw.close()

	lc := e.newLoadClient(ops)
	defer lc.done()

	// Pass A: untraced, at most tracedOpsMax ops or a quarter of the
	// run's seconds. Its op count fixes the length of every later pass.
	opr := startOperator(ctx, e.t, rc.window/4)
	settle()
	before := e.readCounters(ctx)
	untraced, _ := runOps(ctx, lc, ops[:min(len(ops), tracedOpsMax)], nil, rc.window/4)
	after := e.readCounters(ctx)
	n := len(untraced)
	if 2*n > len(ops) {
		return nil, fmt.Errorf("bench: schedule of %d ops is too short for two passes of %d", len(ops), n)
	}
	// Pass B: the next n ops, fresh to every cache like pass A's were.
	traced := ops[n : 2*n]
	tr := newTracer()
	settle()
	rung1, roots := runOps(ctx, lc, traced, tr, 0)
	lad := &ladder{e: e, tw: tw, tr: tr, ops: traced, roots: roots}
	if err := lad.replay(ctx); err != nil {
		return nil, err
	}
	opr.stop()
	res.Lag, res.Snapshots = opr.lag(), opr.snapshots

	for _, s := range append(append([]sample(nil), untraced...), rung1...) {
		res.Attempted++
		if !s.ok {
			res.Failed++
		}
	}
	e.finalChecks(ctx, res)

	rows := stageTable(tr.spans)
	res.Stages = rows
	if err := tr.write(filepath.Join(rc.outDir, "trace_"+rc.wl.Name+".json")); err != nil {
		return nil, err
	}
	e.layerMetrics(res, lad, rows, untraced, rung1, before, after)
	return res, nil
}

// ladder replays the traced ops at each rung below the client round
// trip. Every rung is a full pass in op order, so caches and epochs
// evolve the way they did during the round trips.
type ladder struct {
	e     *env
	tw    *twins
	tr    *tracer
	ops   []op
	roots []int // span of each op's client round trip

	servingInsert string    // name of the ins rung on the serving warehouse
	partialsBytes []float64 // JSON size of one leg's partials, est ops
	legSkew       []float64 // slowest leg over mean leg, est ops
}

func (l *ladder) replay(ctx context.Context) error {
	var sql, est, ins []int
	for i := range l.ops {
		switch l.ops[i].Kind {
		case kindSQL:
			sql = append(sql, i)
		case kindIns:
			ins = append(ins, i)
		default:
			est = append(est, i)
		}
	}
	// Rungs interleave across kinds in op order where they share state
	// (a dashboard's inserts invalidate its reads at every rung).
	if len(sql) > 0 || len(ins) > 0 {
		if err := l.replayLocal(ctx); err != nil {
			return err
		}
	}
	if len(est) > 0 {
		return l.replayEstimates(ctx, est)
	}
	return nil
}

// replayLocal runs the sql and ins ladders of a single-node topology.
//
//	sql: client.Query > Warehouse.ApproxQuery > aqua.AnswerQuery >
//	     {sqlparse.Parse+Fingerprint, rewrite.Rewrite, engine.ExecuteCtx}
//	ins: client.Insert > Table.Insert (serving) > Table.Insert (fsync=none)
//	     > Table.Insert (in memory) > datacube.AddMeasured
func (l *ladder) replayLocal(ctx context.Context) error {
	w := l.e.t.wh
	servingTbl, err := w.Table(tableName)
	if err != nil {
		return err
	}
	rows := make([][]congress.Row, len(l.ops))
	for i := range l.ops {
		if l.ops[i].Kind == kindIns {
			if rows[i], err = typedRows(l.ops[i].Insert); err != nil {
				return err
			}
		}
	}
	insertAll := func(tbl *congress.Table, rs []congress.Row) error {
		for _, r := range rs {
			if err := tbl.Insert(r...); err != nil {
				return err
			}
		}
		return nil
	}
	l.servingInsert = "Table.Insert"
	if ps, ok := w.PersistStats(); ok {
		l.servingInsert += " fsync=" + ps.Fsync.String()
	}

	// Rung 2: the facade of the serving warehouse.
	settle()
	rung2 := make([]int, len(l.ops))
	for i := range l.ops {
		o := &l.ops[i]
		switch o.Kind {
		case kindSQL:
			id := l.tr.begin(l.roots[i], i, variant(o, ""), "Warehouse.ApproxQuery", "congress")
			_, status, err := w.ApproxQuery(ctx, o.Query.SQL, congress.ApproxOptions{NoCache: o.Query.NoCache})
			l.tr.end(id)
			if err != nil {
				return err
			}
			l.tr.relabel(id, variant(o, status.String()))
			rung2[i] = id
		case kindIns:
			id := l.tr.begin(l.roots[i], i, variant(o, ""), l.servingInsert, "persist: fsync wait")
			err := insertAll(servingTbl, rows[i])
			l.tr.end(id)
			if err != nil {
				return err
			}
			l.e.acked.Add(int64(len(rows[i])))
			rung2[i] = id
		}
	}

	// Rung 3: aqua.AnswerQuery on the twin; inserts on the fsync=none twin.
	var noneTbl, memTbl *congress.Table
	if l.tw.none != nil {
		if noneTbl, err = l.tw.none.Table(tableName); err != nil {
			return err
		}
		if memTbl, err = l.tw.mem.Table(tableName); err != nil {
			return err
		}
	}
	rung3 := make([]int, len(l.ops))
	missed := make([]bool, len(l.ops))
	settle()
	for i := range l.ops {
		o := &l.ops[i]
		switch o.Kind {
		case kindSQL:
			id := l.tr.begin(rung2[i], i, variant(o, ""), "aqua.AnswerQuery", "aqua+qcache")
			_, status, err := l.tw.aq.AnswerQuery(ctx, o.Query.SQL, aqua.QueryOptions{NoCache: o.Query.NoCache})
			l.tr.end(id)
			if err != nil {
				return err
			}
			l.tr.relabel(id, variant(o, status.String()))
			rung3[i], missed[i] = id, status != aqua.CacheHit
		case kindIns:
			id := l.tr.begin(rung2[i], i, variant(o, ""), "Table.Insert fsync=none", "persist: WAL append")
			err := insertAll(noneTbl, rows[i])
			l.tr.end(id)
			if err != nil {
				return err
			}
			// The twin's synopsis is the one the sql rungs read: feed it
			// the same rows so its epoch moves like the serving one's.
			if l.tw.aq != nil {
				if syn, ok := l.tw.aq.Synopsis(tableName); ok {
					for _, r := range rows[i] {
						syn.Insert(r)
					}
				}
			}
			rung3[i] = id
		}
	}

	// Rung 4: the leaf calls of a read that was not a cache hit; inserts
	// on the in-memory twin.
	rung4 := make([]int, len(l.ops))
	settle()
	for i := range l.ops {
		o := &l.ops[i]
		switch o.Kind {
		case kindSQL:
			if !missed[i] {
				continue
			}
			kind := l.tr.spans[rung3[i]].Kind
			syn, _ := l.tw.aq.Synopsis(tableName)
			strat := syn.DefaultRewrite()

			id := l.tr.begin(rung3[i], i, kind, "sqlparse.Parse+Fingerprint", "sqlparse")
			stmt, err := sqlparse.Parse(o.Query.SQL)
			if err == nil {
				_ = sqlparse.Fingerprint(stmt)
			}
			l.tr.end(id)
			if err != nil {
				return err
			}
			id = l.tr.begin(rung3[i], i, kind, "rewrite.Rewrite", "rewrite")
			plan, err := rewrite.Rewrite(stmt, strat, syn.Tables(strat))
			l.tr.end(id)
			if err != nil {
				return err
			}
			id = l.tr.begin(rung3[i], i, kind, "engine.ExecuteCtx", "engine")
			_, err = engine.ExecuteCtx(ctx, l.tw.aq.Catalog(), plan)
			l.tr.end(id)
			if err != nil {
				return err
			}
		case kindIns:
			id := l.tr.begin(rung3[i], i, variant(o, ""), "Table.Insert in memory", "core: maintainer + relation")
			err := insertAll(memTbl, rows[i])
			l.tr.end(id)
			if err != nil {
				return err
			}
			rung4[i] = id
		}
	}

	// Rung 5: the cube feed alone.
	settle()
	for i := range l.ops {
		if l.ops[i].Kind != kindIns {
			continue
		}
		id := l.tr.begin(rung4[i], i, variant(&l.ops[i], ""), "datacube.AddMeasured", "datacube")
		for _, r := range rows[i] {
			gid := make(datacube.GroupID, 0, 3)
			for _, ci := range []int{colFlag, colStatus, colDate} {
				gid = append(gid, r[ci].String())
			}
			vals := make([]datacube.MeasureValue, len(l.tw.cubeMeasures))
			for j, ci := range l.tw.cubeMeasures {
				v, ok := r[ci].AsFloat()
				vals[j] = datacube.MeasureValue{V: v, OK: ok}
			}
			if err := l.tw.cube.AddMeasured(gid, vals); err != nil {
				return err
			}
		}
		l.tr.end(id)
	}
	return nil
}

// replayEstimates runs the est and hyb ladders of the distributed
// topology:
//
//	client.Query > Coordinator.EstimateQueryOpts >
//	  { Coordinator.EstimatePartialsOpts >
//	      { RemoteShard.EstimatePartials (per shard) >
//	          { Warehouse.EstimatePartialsOpts, json.Marshal, json.Unmarshal },
//	        estimate.MergePartials },
//	    estimate.Finalize }
func (l *ladder) replayEstimates(ctx context.Context, idx []int) error {
	co := l.e.t.co
	opts := func(o *op) (congress.ApproxOptions, congress.PartialsOptions) {
		return congress.ApproxOptions{NoCache: true, NoHybrid: o.Query.NoHybrid}, congress.PartialsOptions{NoHybrid: o.Query.NoHybrid}
	}
	rung2 := make(map[int]int, len(idx))
	settle()
	for _, i := range idx {
		o := &l.ops[i]
		er := o.Query.Estimate
		ao, _ := opts(o)
		id := l.tr.begin(l.roots[i], i, variant(o, ""), "Coordinator.EstimateQueryOpts", "distshard")
		_, _, err := co.EstimateQueryOpts(ctx, er.Table, er.GroupBy, parseAgg(er.Agg), er.Column, er.Confidence, ao)
		l.tr.end(id)
		if err != nil {
			return err
		}
		rung2[i] = id
	}
	rung3 := make(map[int]int, len(idx))
	settle()
	for _, i := range idx {
		o := &l.ops[i]
		er := o.Query.Estimate
		_, po := opts(o)
		id := l.tr.begin(rung2[i], i, variant(o, ""), "Coordinator.EstimatePartialsOpts", "shard+distshard: fan-out")
		merged, err := co.EstimatePartialsOpts(ctx, er.Table, er.GroupBy, er.Column, po)
		l.tr.end(id)
		if err != nil {
			return err
		}
		rung3[i] = id
		id = l.tr.begin(rung2[i], i, variant(o, ""), "estimate.Finalize", "estimate")
		_, err = estimate.Finalize(merged, parseAgg(er.Agg), er.Confidence)
		l.tr.end(id)
		if err != nil {
			return err
		}
	}
	legs := make(map[int][]int, len(idx))
	settle()
	for _, i := range idx {
		o := &l.ops[i]
		er := o.Query.Estimate
		_, po := opts(o)
		parts := make([][]estimate.GroupPartial, co.NumShards())
		var slowest, total float64
		for s := 0; s < co.NumShards(); s++ {
			id := l.tr.begin(rung3[i], i, variant(o, ""), "RemoteShard.EstimatePartials", "distshard: leg HTTP")
			l.tr.spans[id].Parallel = true
			var err error
			parts[s], err = co.Shard(s).EstimatePartials(ctx, er.Table, er.GroupBy, er.Column, po)
			l.tr.end(id)
			if err != nil {
				return err
			}
			legs[i] = append(legs[i], id)
			us := l.tr.spans[id].us()
			total += us
			slowest = max(slowest, us)
		}
		if o.Kind == kindEst && total > 0 {
			l.legSkew = append(l.legSkew, slowest/(total/float64(co.NumShards())))
		}
		id := l.tr.begin(rung3[i], i, variant(o, ""), "estimate.MergePartials", "estimate")
		estimate.MergePartials(parts...)
		l.tr.end(id)
	}
	for _, i := range idx {
		o := &l.ops[i]
		er := o.Query.Estimate
		_, po := opts(o)
		scanLayer := "aqua: sample scan"
		if o.Kind == kindHyb {
			scanLayer = "datacube: cube lookup"
		}
		for s, sh := range l.e.t.shards {
			id := l.tr.begin(legs[i][s], i, variant(o, ""), "Warehouse.EstimatePartialsOpts", scanLayer)
			parts, err := sh.EstimatePartialsOpts(ctx, er.Table, er.GroupBy, er.Column, po)
			l.tr.end(id)
			if err != nil {
				return err
			}
			id = l.tr.begin(legs[i][s], i, variant(o, ""), "json.Marshal(partials)", "estimate: wire codec")
			body, err := json.Marshal(client.PartialsResponse{Partials: parts})
			l.tr.end(id)
			if err != nil {
				return err
			}
			id = l.tr.begin(legs[i][s], i, variant(o, ""), "json.Unmarshal(partials)", "estimate: wire codec")
			var back client.PartialsResponse
			err = json.Unmarshal(body, &back)
			l.tr.end(id)
			if err != nil {
				return err
			}
			if o.Kind == kindEst {
				l.partialsBytes = append(l.partialsBytes, float64(len(body)))
			}
		}
	}
	return nil
}

// spanSet answers "the typical duration (or self time) of this call
// for this kind" over a traced pass, pooling the kind's shapes. Pooling
// is sound for the contract's per-layer numbers because sql_scan and
// dist_estimate send their three shapes in equal thirds, which puts the
// median inside the middle shape; the stage tables never pool.
type spanSet struct {
	spans []span
	self  []float64
}

// of returns the durations and self times of kind's spans named name;
// suffix, when set, further requires the variant to end with it.
func (ss spanSet) of(kind, name, suffix string) (durs, selfs []float64) {
	for _, s := range ss.spans {
		if s.Name == name && strings.HasPrefix(s.Kind, kind+":") && strings.HasSuffix(s.Kind, suffix) {
			durs = append(durs, s.us())
			selfs = append(selfs, ss.self[s.ID])
		}
	}
	return durs, selfs
}

func (ss spanSet) dur(kind, name string) float64 {
	d, _ := ss.of(kind, name, "")
	return median(d)
}

func (ss spanSet) selfOf(kind, name string) float64 {
	_, s := ss.of(kind, name, "")
	return median(s)
}

// layerMetrics fills res.Metrics with every per-layer metric.
func (e *env) layerMetrics(res *result, lad *ladder, rows []stageRow, untraced, rung1 []sample, before, after counters) {
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.Name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
		panic("bench: " + name + " is not a per-layer metric")
	}
	for _, d := range perLayer {
		set(d.Name, 0)
	}
	ss := spanSet{spans: lad.tr.spans, self: selfTimes(lad.tr.spans)}

	// Per-kind client latency with tracing off; per variant, the traced
	// ladder against the untraced round trips.
	byVariant := func(samples []sample, ops []op) map[string][]float64 {
		m := map[string][]float64{}
		for i, s := range samples {
			if s.ok {
				v := variant(&ops[i], s.cache)
				m[v] = append(m[v], s.ms())
			}
		}
		return m
	}
	byKind := map[string][]float64{}
	for _, s := range untraced {
		if s.ok {
			byKind[s.kind] = append(byKind[s.kind], s.ms())
		}
	}
	for kind, lats := range byKind {
		set(kind+"_p50_ms", median(lats))
	}
	un, tr := byVariant(untraced, e.sched.Clients[0]), byVariant(rung1, lad.ops)
	res.TracedKinds = map[string]tracedKind{}
	main := ""
	for v := range un {
		if len(un[v]) > len(un[main]) || (len(un[v]) == len(un[main]) && v < main) {
			main = v
		}
		tk := tracedKind{N: len(un[v]), UntracedP50US: 1e3 * median(un[v]), TracedP50US: 1e3 * median(tr[v]), SelfSumUS: selfSumUS(rows, v)}
		if gap := tk.UntracedP50US - tk.SelfSumUS; gap > 0.15*tk.UntracedP50US || gap < -0.15*tk.UntracedP50US {
			tk.UnattributedUS = gap
		}
		res.TracedKinds[v] = tk
	}
	// The two contract numbers are those of the variant with the most
	// samples; every variant's are in TracedKinds.
	if tk := res.TracedKinds[main]; tk.UntracedP50US > 0 && tk.TracedP50US > 0 {
		set("trace_overhead_pct", 100*(tk.TracedP50US-tk.UntracedP50US)/tk.UntracedP50US)
		set("unattributed_us", tk.UnattributedUS)
	}

	set("group_err_mean_pct", e.chk.groupErrMeanPct())
	set("bound_cover_frac", e.chk.boundCoverFrac())

	// sqlparse, rewrite, engine
	set("parse_us", ss.dur(kindSQL, "sqlparse.Parse+Fingerprint"))
	set("rewrite_us", ss.dur(kindSQL, "rewrite.Rewrite"))
	execUS := ss.dur(kindSQL, "engine.ExecuteCtx")
	set("exec_us", execUS)
	texts, prints, sqlOps := map[string]bool{}, map[string]bool{}, 0
	for _, s := range e.sched.Clients[0][:len(untraced)] {
		if s.Kind != kindSQL {
			continue
		}
		sqlOps++
		if !texts[s.Query.SQL] {
			texts[s.Query.SQL] = true
			if stmt, err := sqlparse.Parse(s.Query.SQL); err == nil {
				prints[sqlparse.Fingerprint(stmt)] = true
			}
		}
	}
	if sqlOps > 0 {
		set("parse_cache_misses", float64(len(texts)))
		set("plan_cache_hit_frac", 1-float64(len(prints))/float64(sqlOps))
	}
	dVec, dFb := float64(after.vec-before.vec), float64(after.fb-before.fb)
	set("engine_exec_count", dVec+dFb)
	if dVec+dFb > 0 {
		set("vectorized_frac", dVec/(dVec+dFb))
	}
	if execUS > 0 && e.t.wh != nil {
		for _, si := range e.t.wh.Synopses() {
			set("sample_rows_per_s", float64(si.SampleSize)/(execUS/1e6))
		}
	}

	// aqua + qcache
	hits, misses := float64(after.m.CacheHits-before.m.CacheHits), float64(after.m.CacheMisses-before.m.CacheMisses)
	if hits+misses > 0 {
		set("cache_hit_frac", hits/(hits+misses))
	}
	hitDurs, _ := ss.of(kindSQL, "aqua.AnswerQuery", "/hit")
	set("hit_us", median(hitDurs))
	set("cache_evictions", float64(after.m.CacheEvictions-before.m.CacheEvictions))
	set("answer_count", float64(after.m.Answer.Count-before.m.Answer.Count+after.m.Estimate.Count-before.m.Estimate.Count))

	// estimate, datacube, shard
	set("partials_us", ss.dur(kindEst, "Warehouse.EstimatePartialsOpts"))
	set("exact_partials_us", ss.dur(kindHyb, "Warehouse.EstimatePartialsOpts"))
	set("merge_us", ss.dur(kindEst, "estimate.MergePartials"))
	set("finalize_us", ss.dur(kindEst, "estimate.Finalize"))
	set("wire_enc_us", ss.dur(kindEst, "json.Marshal(partials)"))
	set("wire_dec_us", ss.dur(kindEst, "json.Unmarshal(partials)"))
	set("partials_bytes", median(lad.partialsBytes))
	set("leg_rtt_us", ss.dur(kindEst, "RemoteShard.EstimatePartials"))
	set("fanout_us", ss.dur(kindEst, "Coordinator.EstimatePartialsOpts"))
	set("slow_over_mean_leg", median(lad.legSkew))
	set("hybrid_exact", float64(after.m.HybridExact-before.m.HybridExact))
	set("hybrid_fallback", float64(after.m.HybridFallback-before.m.HybridFallback))
	set("hybrid_residual", float64(after.residual-before.residual))
	delta := func(prefix string) float64 { return sumSeries(after.text, prefix) - sumSeries(before.text, prefix) }
	set("leg_retries", delta("congress_distshard_fanout_retries_total"))
	set("leg_errors", delta("congress_distshard_fanout_errors_total"))
	set("shard_leg_count", delta(`server_requests_total{code="200",route="partials"}`))
	set("shed_count", delta("server_requests_shed_total"))

	// server + pkg/client: the round trip minus the same call made
	// in-process, which is the self time of the round trip's span.
	for _, kind := range allKinds {
		set("http_overhead_"+kind+"_us", ss.selfOf(kind, rungClient(kind)))
	}

	// core and persist: the insert ladder, per row
	var insRows float64
	for i := range lad.ops {
		if lad.ops[i].Kind == kindIns {
			insRows = float64(len(lad.ops[i].Insert.Rows))
			break
		}
	}
	if insRows > 0 {
		set("fsync_wait_us", ss.selfOf(kindIns, lad.servingInsert)/insRows)
		set("wal_append_us_per_row", ss.selfOf(kindIns, "Table.Insert fsync=none")/insRows)
		set("maintain_us_per_row", ss.dur(kindIns, "Table.Insert in memory")/insRows)
		set("cube_feed_us_per_row", ss.dur(kindIns, "datacube.AddMeasured")/insRows)
	}
	set("generate_s", e.t.generateS)
	set("build_synopsis_s", e.t.buildS)
	recs := float64(after.m.WALRecords - before.m.WALRecords)
	set("wal_record_count", recs)
	if recs > 0 {
		set("wal_bytes_per_row", float64(after.m.WALBytes-before.m.WALBytes)/recs)
	}
	if snaps := float64(after.m.Snapshots.Count - before.m.Snapshots.Count); snaps > 0 {
		set("snapshot_s", (after.m.Snapshots.Total-before.m.Snapshots.Total).Seconds()/snaps)
		set("snapshot_bytes", float64(after.m.SnapshotBytes-before.m.SnapshotBytes)/snaps)
	}
	set("snapshot_stall_ms", snapshotStallMS([][]sample{untraced}, res.Snapshots))
	if res.Recovery != nil {
		set("recover_s", res.Recovery.RecoverS)
		set("follower_catchup_s", res.Recovery.CatchupS)
	}
	if res.Lag != nil {
		set("follower_lag_p50_records", res.Lag.P50Records)
		set("follower_lag_max_records", res.Lag.MaxRecords)
	}
	if e.t.follower != nil {
		set("follower_rebootstraps", float64(e.t.follower.Status().Rebootstraps))
	}

	res.Predictions = predictions(e.rc.wl.Name, res.Metrics)
}

// predictions are the layer-by-workload claims of README.md that a
// traced run can check from its own counts.
func predictions(workload string, m map[string]metricValue) map[string]bool {
	zero := func(names ...string) bool {
		for _, n := range names {
			if m[n].Value != 0 {
				return false
			}
		}
		return true
	}
	switch workload {
	case "sql_scan":
		return map[string]bool{
			"result cache never consulted (cache_hit_frac = 0)": zero("cache_hit_frac", "hit_us"),
			"persist and shard do no work":                      zero("wal_record_count", "shard_leg_count"),
		}
	case "dashboard_rw":
		return map[string]bool{
			"cache_hit_frac outside 0.4-0.6": m["cache_hit_frac"].Value < 0.4 || m["cache_hit_frac"].Value > 0.6,
			"shard does no work":             zero("shard_leg_count"),
		}
	case "dist_estimate":
		return map[string]bool{
			"the SQL engine is never entered (engine_exec_count = 0)": zero("engine_exec_count"),
			"every hyb leg is answered from the cube":                 m["hybrid_exact"].Value > 0 && zero("hybrid_residual"),
		}
	case "ingest_durable":
		return map[string]bool{
			"no query is answered during the pass (answer_count = 0)": zero("answer_count", "engine_exec_count"),
		}
	}
	return nil
}
