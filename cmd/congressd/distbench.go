package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"sort"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/server"
	"github.com/approxdb/congress/internal/shard"
)

// distBenchReport is the BENCH_distshard.json schema: the distributed
// coordinator (one HTTP congressd per shard) versus the in-process
// sharded warehouse over the same generated data and partitioning.
// MaxRelDiff is the largest relative difference between the two
// estimators across every group, aggregate, and bound — the distributed
// path is supposed to reproduce the in-process answers exactly, so this
// should sit at floating-point noise.
type distBenchReport struct {
	Shards        int                        `json:"shards"`
	Rows          int                        `json:"rows"`
	Groups        int                        `json:"groups"`
	SpacePct      float64                    `json:"space_pct"`
	Confidence    float64                    `json:"confidence"`
	GroupBy       []string                   `json:"group_by"`
	EstimateIters int                        `json:"estimate_iters"`
	MaxRelDiff    float64                    `json:"max_rel_diff_vs_in_process"`
	Aggregates    map[string]distAggAccuracy `json:"aggregates"`
	LatencyMS     distLatency                `json:"latency_ms"`
}

// distAggAccuracy compares one aggregate's distributed and in-process
// estimates against exact SQL ground truth.
type distAggAccuracy struct {
	Groups      int             `json:"groups"`
	Distributed accuracySummary `json:"distributed"`
	InProcess   accuracySummary `json:"in_process"`
}

// distLatency holds the per-estimate latency of each execution path:
// the distributed one pays one HTTP round-trip per shard plus the
// merge, the in-process one only the merge.
type distLatency struct {
	Distributed latencySummary `json:"distributed"`
	InProcess   latencySummary `json:"in_process"`
}

// runDistBench builds the same generated relation twice — once behind
// an in-process ShardedWarehouse and once partitioned across K real
// congressd HTTP servers behind a Coordinator — and scores accuracy
// (against exact SQL) and estimate latency for both paths.
func runDistBench(out io.Writer, wf *warehouseFlags, shards, iters int, outPath string, log *slog.Logger) error {
	if *wf.loadCSV != "" {
		return errors.New("loadgen: -dist-shards needs a generated table with known ground truth")
	}
	rel, err := loadRelation(wf, log)
	if err != nil {
		return err
	}
	spec, err := synopsisSpecFor(wf, rel)
	if err != nil {
		return err
	}
	const conf = 0.95
	groupBy := spec.GroupBy[:1]
	aggCol := "l_quantity"

	exactW := congress.Open()
	if _, err := exactW.AttachRelation(rel); err != nil {
		return err
	}
	res, err := exactW.Query(fmt.Sprintf(
		"select %s, sum(%s), count(*), avg(%s) from %s group by %s",
		groupBy[0], aggCol, aggCol, rel.Name, groupBy[0]))
	if err != nil {
		return err
	}
	truth := make(map[string][3]float64, len(res.Rows)) // group → sum, count, avg
	for _, r := range res.Rows {
		s, _ := r[1].AsFloat()
		c, _ := r[2].AsFloat()
		a, _ := r[3].AsFloat()
		truth[r[0].String()] = [3]float64{s, c, a}
	}

	sw, err := congress.OpenSharded(shards)
	if err != nil {
		return err
	}
	if _, err := sw.AttachRelation(rel, spec.GroupBy); err != nil {
		return err
	}
	if err := sw.BuildSynopsis(spec); err != nil {
		return err
	}

	co, srvs, err := startDistCluster(rel, spec, shards, log)
	defer func() {
		for _, s := range srvs {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			s.Shutdown(ctx)
			cancel()
		}
	}()
	if err != nil {
		return err
	}

	rep := &distBenchReport{
		Shards: shards, Rows: rel.NumRows(), Groups: len(truth),
		SpacePct: *wf.spacePct, Confidence: conf, GroupBy: groupBy,
		EstimateIters: iters,
		Aggregates:    make(map[string]distAggAccuracy, 3),
	}
	aggs := []struct {
		name string
		agg  congress.Aggregate
	}{{"sum", congress.Sum}, {"count", congress.Count}, {"avg", congress.Avg}}
	for ai, a := range aggs {
		distEsts, err := co.Estimate(rel.Name, groupBy, a.agg, aggCol, conf)
		if err != nil {
			return fmt.Errorf("distributed %s: %w", a.name, err)
		}
		inEsts, err := sw.Estimate(rel.Name, groupBy, a.agg, aggCol, conf)
		if err != nil {
			return fmt.Errorf("in-process %s: %w", a.name, err)
		}
		if d, err := maxEstimateDiff(distEsts, inEsts); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		} else if d > rep.MaxRelDiff {
			rep.MaxRelDiff = d
		}
		acc := distAggAccuracy{Groups: len(truth)}
		if acc.Distributed, err = scoreEstimates(distEsts, truth, ai); err != nil {
			return fmt.Errorf("distributed %s: %w", a.name, err)
		}
		if acc.InProcess, err = scoreEstimates(inEsts, truth, ai); err != nil {
			return fmt.Errorf("in-process %s: %w", a.name, err)
		}
		rep.Aggregates[a.name] = acc
	}

	if rep.LatencyMS.Distributed, err = timeEstimates(iters, func() error {
		_, err := co.Estimate(rel.Name, groupBy, congress.Sum, aggCol, conf)
		return err
	}); err != nil {
		return err
	}
	if rep.LatencyMS.InProcess, err = timeEstimates(iters, func() error {
		_, err := sw.Estimate(rel.Name, groupBy, congress.Sum, aggCol, conf)
		return err
	}); err != nil {
		return err
	}

	fmt.Fprintf(out, "distshard bench: %d shards over %d rows, max rel diff vs in-process %.3g\n",
		shards, rep.Rows, rep.MaxRelDiff)
	for agg, acc := range rep.Aggregates {
		fmt.Fprintf(out, "distshard accuracy %s over %d groups: distributed rel-err mean=%.4f max=%.4f coverage=%.2f; in-process mean=%.4f max=%.4f coverage=%.2f\n",
			agg, acc.Groups,
			acc.Distributed.MeanRelErr, acc.Distributed.MaxRelErr, acc.Distributed.Coverage,
			acc.InProcess.MeanRelErr, acc.InProcess.MaxRelErr, acc.InProcess.Coverage)
	}
	fmt.Fprintf(out, "distshard latency ms (%d iters): distributed p50=%.2f p95=%.2f mean=%.2f; in-process p50=%.2f p95=%.2f mean=%.2f\n",
		iters,
		rep.LatencyMS.Distributed.P50, rep.LatencyMS.Distributed.P95, rep.LatencyMS.Distributed.Mean,
		rep.LatencyMS.InProcess.P50, rep.LatencyMS.InProcess.P95, rep.LatencyMS.InProcess.Mean)
	if outPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", outPath)
	}
	return nil
}

// startDistCluster partitions rel by its finest grouping key across K
// shard warehouses — the same routing the Coordinator and the
// in-process ShardedWarehouse use, so every stratum lives whole on one
// shard — serves each behind its own HTTP server, and returns a
// discovered Coordinator over them. Servers already started are
// returned even on error so the caller can shut them down.
func startDistCluster(rel *engine.Relation, spec congress.SynopsisSpec, shards int, log *slog.Logger) (*congress.Coordinator, []*server.Server, error) {
	g, err := core.NewGrouping(rel.Schema, spec.GroupBy)
	if err != nil {
		return nil, nil, err
	}
	router, err := shard.NewRouter(shards)
	if err != nil {
		return nil, nil, err
	}
	parts := make([][]engine.Row, shards)
	for _, row := range rel.Rows() {
		i := router.Route(g.Key(row))
		parts[i] = append(parts[i], row)
	}
	var srvs []*server.Server
	endpoints := make([]string, shards)
	for i := 0; i < shards; i++ {
		prel := engine.NewRelation(rel.Name, rel.Schema)
		if err := prel.InsertAll(parts[i]); err != nil {
			return nil, srvs, err
		}
		pw := congress.Open()
		if _, err := pw.AttachRelation(prel); err != nil {
			return nil, srvs, err
		}
		if err := pw.BuildSynopsis(spec); err != nil {
			return nil, srvs, fmt.Errorf("shard %d synopsis: %w", i, err)
		}
		s := server.New(server.Options{Warehouse: pw, Logger: log})
		bound, err := s.Start("127.0.0.1:0")
		if err != nil {
			return nil, srvs, err
		}
		srvs = append(srvs, s)
		endpoints[i] = "http://" + bound
	}
	co, err := congress.NewCoordinator(endpoints, congress.CoordinatorOptions{
		LegTimeout: 10 * time.Second,
	})
	if err != nil {
		return nil, srvs, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := co.WaitHealthy(ctx, 50*time.Millisecond); err != nil {
		return nil, srvs, err
	}
	if err := co.Discover(ctx); err != nil {
		return nil, srvs, err
	}
	return co, srvs, nil
}

// maxEstimateDiff returns the largest relative difference in value or
// bound between two estimator answers over the same groups.
func maxEstimateDiff(a, b []congress.GroupEstimate) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("group count differs: %d vs %d", len(a), len(b))
	}
	byKey := make(map[string]congress.GroupEstimate, len(b))
	for _, e := range b {
		byKey[e.Key] = e
	}
	var worst float64
	for _, e := range a {
		o, ok := byKey[e.Key]
		if !ok {
			return 0, fmt.Errorf("group %q missing from in-process answer", e.Key)
		}
		for _, d := range []float64{relDiff(e.Value, o.Value), relDiff(e.Bound, o.Bound)} {
			if d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// relDiff is |a-b| scaled by the larger magnitude (floored at 1 so
// near-zero pairs don't explode).
func relDiff(a, b float64) float64 {
	denom := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / denom
}

// timeEstimates runs fn iters times and summarizes wall-clock latency.
func timeEstimates(iters int, fn func() error) (latencySummary, error) {
	lats := make([]float64, 0, iters)
	var sum, max float64
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return latencySummary{}, err
		}
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		lats = append(lats, ms)
		sum += ms
		if ms > max {
			max = ms
		}
	}
	sort.Float64s(lats)
	n := len(lats)
	if n == 0 {
		return latencySummary{}, errors.New("no estimate iterations ran")
	}
	return latencySummary{
		P50:  lats[n/2],
		P95:  lats[min(n-1, n*95/100)],
		P99:  lats[min(n-1, n*99/100)],
		Mean: sum / float64(n),
		Max:  max,
	}, nil
}
