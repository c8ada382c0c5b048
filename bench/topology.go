package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/repl"
	"github.com/approxdb/congress/internal/server"
	"github.com/approxdb/congress/internal/shard"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/pkg/client"
)

// quietLog keeps request logging off the measured path (congressd's
// own loadgen defaults to warn as well) while still showing failures.
var quietLog = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

const distShards = 2

// topology is one congressd deployment started in-process on loopback.
type topology struct {
	wl  workloadDef
	rel *engine.Relation // the full generated table

	endpoint string              // where clients send ops
	wh       *congress.Warehouse // the serving warehouse; nil behind a coordinator

	shards    []*congress.Warehouse // dist_estimate only
	shardURLs []string
	co        *congress.Coordinator

	follower    *repl.Follower // ingest_durable only
	followerWH  *congress.Warehouse
	followerURL string

	dir string // data directories of this set-up; removed by close

	generateS, buildS, setupS float64

	closers []func() error // run last-to-first by close
}

func synopsisSpec(rows int) congress.SynopsisSpec {
	return congress.SynopsisSpec{
		Table:        tableName,
		GroupBy:      tpcd.GroupingAttrs,
		Space:        int(float64(rows) * spacePct / 100),
		Strategy:     congress.Congress,
		Rewrite:      congress.Integrated,
		BuildWorkers: congress.DefaultBuildWorkers(),
		Seed:         tableSeed,
	}
}

// setupTopology generates the table, builds the synopsis and starts
// the servers of wl, returning once the serving endpoint answers a
// health probe. setupS is the time all of that took. dir is where
// durable topologies keep their data; it need not exist.
func setupTopology(wl workloadDef, dir string) (t *topology, err error) {
	start := time.Now()
	t = &topology{wl: wl, dir: dir}
	defer func() {
		if err != nil {
			t.close()
			t = nil
		}
	}()
	if t.rel, err = generateTable(wl); err != nil {
		return t, err
	}
	t.generateS = time.Since(start).Seconds()

	switch wl.Name {
	case "sql_scan":
		w := congress.Open()
		if err = t.populate(w, t.rel); err != nil {
			return t, err
		}
		t.wh = w
		t.endpoint, err = t.serve(server.Options{Warehouse: w})
	case "dashboard_rw":
		t.wh, t.endpoint, err = t.serveDurable(filepath.Join(dir, "node"), congress.FsyncInterval)
	case "dist_estimate":
		err = t.serveDistributed()
	case "ingest_durable":
		if t.wh, t.endpoint, err = t.serveDurable(filepath.Join(dir, "leader"), congress.FsyncAlways); err != nil {
			return t, err
		}
		err = t.serveFollower(filepath.Join(dir, "follower"))
	default:
		err = fmt.Errorf("bench: no topology for workload %q", wl.Name)
	}
	if err != nil {
		return t, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err = client.New(t.endpoint).Health(ctx); err != nil {
		return t, fmt.Errorf("bench: %s not healthy: %w", t.endpoint, err)
	}
	t.setupS = time.Since(start).Seconds()
	return t, nil
}

// populate attaches rel and builds the synopsis, timing the build.
func (t *topology) populate(w *congress.Warehouse, rel *engine.Relation) error {
	if _, err := w.AttachRelation(rel); err != nil {
		return err
	}
	start := time.Now()
	if err := w.BuildSynopsis(synopsisSpec(rel.NumRows())); err != nil {
		return err
	}
	t.buildS += time.Since(start).Seconds()
	return nil
}

func (t *topology) serve(opts server.Options) (string, error) {
	opts.Logger = quietLog
	srv := server.New(opts)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	t.closers = append(t.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	})
	return "http://" + addr, nil
}

// serveDurable is congressd serve -data-dir: recover (an empty
// directory), populate, snapshot so the attached table is durable, and
// serve with the replication shipping endpoints mounted.
func (t *topology) serveDurable(dir string, mode congress.FsyncMode) (*congress.Warehouse, string, error) {
	w, _, err := congress.OpenDir(dir, congress.PersistOptions{Fsync: mode, FsyncInterval: 50 * time.Millisecond})
	if err != nil {
		return nil, "", err
	}
	t.closers = append(t.closers, w.Close)
	if err := t.populate(w, t.rel); err != nil {
		return nil, "", err
	}
	if err := w.TriggerSnapshot(); err != nil {
		return nil, "", err
	}
	leader := repl.NewLeader(w.PersistManager(), repl.LeaderOptions{Logger: quietLog})
	url, err := t.serve(server.Options{Warehouse: w, ReplLeader: leader})
	return w, url, err
}

func (t *topology) serveFollower(dir string) error {
	fw := congress.Open()
	// The follower gets a transport of its own (a copy of the default
	// one it would otherwise share) so that close can drop its
	// connections: one the transport dialled and never used would
	// otherwise hold the leader's Shutdown for five seconds.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	f, err := repl.NewFollower(repl.FollowerOptions{Leader: t.endpoint, Dir: dir, Target: fw, HTTPClient: &http.Client{Transport: tr}, Logger: quietLog})
	if err != nil {
		return err
	}
	if err := f.Start(); err != nil {
		return err
	}
	t.closers = append(t.closers, func() error { f.Close(); tr.CloseIdleConnections(); return nil })
	t.follower, t.followerWH = f, fw
	t.followerURL, err = t.serve(server.Options{Warehouse: fw, Follower: f})
	return err
}

// serveDistributed partitions the table by its finest grouping key (the
// routing a coordinator uses for inserts, so every stratum lives whole
// on one shard), serves each partition from its own HTTP server with a
// 7% synopsis of that partition, and fronts them with a coordinator
// server.
func (t *topology) serveDistributed() error {
	g, err := core.NewGrouping(t.rel.Schema, tpcd.GroupingAttrs)
	if err != nil {
		return err
	}
	router, err := shard.NewRouter(distShards)
	if err != nil {
		return err
	}
	parts := make([][]engine.Row, distShards)
	for _, row := range t.rel.Rows() {
		i := router.Route(g.Key(row))
		parts[i] = append(parts[i], row)
	}
	for i := range parts {
		prel := engine.NewRelation(t.rel.Name, t.rel.Schema)
		if err := prel.InsertAll(parts[i]); err != nil {
			return err
		}
		w := congress.Open()
		if err := t.populate(w, prel); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		url, err := t.serve(server.Options{Warehouse: w})
		if err != nil {
			return err
		}
		t.shards = append(t.shards, w)
		t.shardURLs = append(t.shardURLs, url)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone() // the coordinator's own, for the same reason as the follower's
	t.closers = append(t.closers, func() error { tr.CloseIdleConnections(); return nil })
	if t.co, err = congress.NewCoordinator(t.shardURLs, congress.CoordinatorOptions{HTTPClient: &http.Client{Transport: tr}}); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := t.co.WaitHealthy(ctx, 10*time.Millisecond); err != nil {
		return err
	}
	if err := t.co.Discover(ctx); err != nil {
		return err
	}
	t.endpoint, err = t.serve(server.Options{Coordinator: t.co})
	return err
}

// close stops servers, followers and warehouses in reverse start order
// and removes the data directories.
func (t *topology) close() error {
	var errs []error
	for i := len(t.closers) - 1; i >= 0; i-- {
		if err := t.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	t.closers = nil
	if t.dir != "" {
		if err := os.RemoveAll(t.dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// newClient returns a client that holds exactly one connection, so
// "clients" and "connections" mean the same thing in the report.
func newClient(endpoint string) (*client.Client, func()) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return client.New(endpoint, client.WithHTTPClient(&http.Client{Transport: tr})), tr.CloseIdleConnections
}
