// Command congressd serves a congressional-samples warehouse over
// HTTP/JSON. It generates or loads a lineitem table, builds a synopsis,
// and serves the /v1 API until SIGINT/SIGTERM, then drains in-flight
// requests gracefully ("serve" may be omitted):
//
//	congressd serve -addr :8642 -rows 200000 -groups 1000 -strategy congress
//
// With -data-dir the warehouse is durable: state is recovered from the
// newest snapshot plus WAL replay on startup, every insert and DDL is
// write-ahead logged (fsync policy via -fsync), and a background
// snapshotter compacts the log:
//
//	congressd serve -addr :8642 -data-dir /var/lib/congressd -fsync interval
//
// Sharding runs each shard as its own congressd process — each with
// its own durable -data-dir if desired — and fronts them with a
// coordinator. A shard process carves out its partition of the
// generated table with -shard-index/-shard-total (all processes must
// agree on -seed, -rows and the grouping so they partition one
// logical relation); the coordinator routes inserts by the finest
// grouping key and scatter-gathers estimates over HTTP via
// /v1/estimate/partials:
//
//	congressd serve -addr :8701 -shard-index 0 -shard-total 2 -data-dir /var/lib/shard0
//	congressd serve -addr :8702 -shard-index 1 -shard-total 2 -data-dir /var/lib/shard1
//	congressd serve -addr :8642 -coordinator \
//	    -shard-endpoints http://localhost:8701,http://localhost:8702
//
// With -follow the server is a read-only replication follower: it
// bootstraps from the leader's newest shipped snapshot (or its own disk
// after a restart), tails the leader's WAL, rejects writes with a 503
// pointing at the leader, and reports lag on /healthz, /metrics, and
// /v1/repl/status. A durable leader (-data-dir without -follow) serves
// the /v1/repl shipping endpoints automatically:
//
//	congressd serve -addr :8643 -data-dir /var/lib/congressd-replica \
//	    -follow http://leader:8642
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/repl"
	"github.com/approxdb/congress/internal/server"
	"github.com/approxdb/congress/internal/shard"
	"github.com/approxdb/congress/internal/tpcd"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "serve" {
		args = args[1:]
	}
	if err := runServe(args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "congressd:", err)
		os.Exit(1)
	}
}

// warehouseFlags are the demo-warehouse knobs.
type warehouseFlags struct {
	rows         *int
	groups       *int
	skew         *float64
	spacePct     *float64
	strategy     *string
	rewrite      *string
	seed         *int64
	loadCSV      *string
	table        *string
	groupCols    *string
	cacheEntries *int
	cacheBytes   *int64
	shardIndex   *int
	shardTotal   *int
}

func addWarehouseFlags(fs *flag.FlagSet) *warehouseFlags {
	return &warehouseFlags{
		rows:         fs.Int("rows", 200_000, "generated table size"),
		groups:       fs.Int("groups", 1000, "number of groups"),
		skew:         fs.Float64("skew", 0.86, "group-size Zipf z"),
		spacePct:     fs.Float64("space-pct", 7, "synopsis size as % of table"),
		strategy:     fs.String("strategy", "congress", "house|senate|basic|congress"),
		rewrite:      fs.String("rewrite", "integrated", "integrated|nested|normalized|keynormalized"),
		seed:         fs.Int64("seed", 1, "RNG seed"),
		loadCSV:      fs.String("load", "", "load the base table from a typed CSV instead of generating"),
		table:        fs.String("table", "lineitem", "base table name when loading from CSV"),
		groupCols:    fs.String("group-cols", "", "comma-separated grouping columns (default: TPC-D grouping attributes)"),
		cacheEntries: fs.Int("cache-entries", 0, "result-cache entry bound (0 = default 4096, negative disables caching)"),
		cacheBytes:   fs.Int64("cache-bytes", 0, "result-cache byte bound (0 = default 64 MiB, negative = unbounded)"),
		shardIndex:   fs.Int("shard-index", -1, "serve only this shard's partition of the table (0-based; requires -shard-total; all shard processes must agree on -seed/-rows/grouping)"),
		shardTotal:   fs.Int("shard-total", 0, "total shard count the partition is carved from (with -shard-index)"),
	}
}

// buildWarehouse materializes the demo warehouse described by the flags.
func buildWarehouse(wf *warehouseFlags, log *slog.Logger) (*congress.Warehouse, error) {
	w := congress.Open()
	w.ConfigureCache(*wf.cacheEntries, *wf.cacheBytes)
	if err := populateWarehouse(w, wf, log); err != nil {
		return nil, err
	}
	return w, nil
}

// loadRelation loads the base table from CSV or generates the TPC-D
// lineitem table, per the flags.
func loadRelation(wf *warehouseFlags, log *slog.Logger) (*engine.Relation, error) {
	var rel *engine.Relation
	start := time.Now()
	if *wf.loadCSV != "" {
		f, err := os.Open(*wf.loadCSV)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if rel, err = engine.ReadCSV(*wf.table, f); err != nil {
			return nil, err
		}
	} else {
		var err error
		rel, err = tpcd.Generate(tpcd.Params{
			TableSize: *wf.rows, NumGroups: *wf.groups, GroupSkew: *wf.skew, Seed: *wf.seed,
		})
		if err != nil {
			return nil, err
		}
	}
	if *wf.shardIndex >= 0 {
		var err error
		if rel, err = shardPartition(rel, wf); err != nil {
			return nil, err
		}
	}
	log.Info("table ready", slog.String("table", rel.Name),
		slog.Int("rows", rel.NumRows()), slog.Duration("took", time.Since(start)))
	return rel, nil
}

// shardPartition filters a loaded relation down to one shard's slice:
// the rows whose finest grouping key routes to -shard-index among
// -shard-total shards — exactly the partition a coordinator with the
// same membership size sends this process. Every shard process loading
// the same relation deterministically carves a disjoint slice, so
// together they hold it exactly once.
func shardPartition(rel *engine.Relation, wf *warehouseFlags) (*engine.Relation, error) {
	if *wf.shardTotal <= *wf.shardIndex {
		return nil, fmt.Errorf("serve: -shard-index %d needs -shard-total > it, got %d", *wf.shardIndex, *wf.shardTotal)
	}
	grouping := tpcd.GroupingAttrs
	if *wf.groupCols != "" {
		grouping = splitCSV(*wf.groupCols)
	}
	parts, err := shard.Partition(rel, grouping, *wf.shardTotal)
	if err != nil {
		return nil, err
	}
	return parts[*wf.shardIndex], nil
}

// synopsisSpecFor resolves the strategy/rewrite/grouping flags into the
// synopsis spec for a loaded relation.
func synopsisSpecFor(wf *warehouseFlags, rel *engine.Relation) (congress.SynopsisSpec, error) {
	strategy, err := congress.ParseStrategy(*wf.strategy)
	if err != nil {
		return congress.SynopsisSpec{}, err
	}
	rw, err := congress.ParseRewriteStrategy(*wf.rewrite)
	if err != nil {
		return congress.SynopsisSpec{}, err
	}
	grouping := tpcd.GroupingAttrs
	if *wf.groupCols != "" {
		grouping = splitCSV(*wf.groupCols)
	}
	return congress.SynopsisSpec{
		Table:    rel.Name,
		GroupBy:  grouping,
		Space:    int(float64(rel.NumRows()) * *wf.spacePct / 100),
		Strategy: strategy,
		Rewrite:  rw,
		Seed:     *wf.seed,
	}, nil
}

// populateWarehouse loads or generates the base table and builds its
// synopsis inside an already-open warehouse (fresh or durable).
func populateWarehouse(w *congress.Warehouse, wf *warehouseFlags, log *slog.Logger) error {
	rel, err := loadRelation(wf, log)
	if err != nil {
		return err
	}
	spec, err := synopsisSpecFor(wf, rel)
	if err != nil {
		return err
	}
	if _, err := w.AttachRelation(rel); err != nil {
		return err
	}
	start := time.Now()
	if err := w.BuildSynopsis(spec); err != nil {
		return err
	}
	log.Info("synopsis ready", slog.String("strategy", spec.Strategy.String()),
		slog.Int("space", spec.Space), slog.Duration("took", time.Since(start)))
	return nil
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %v", level, err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("congressd serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8642", "listen address")
	coordinator := fs.Bool("coordinator", false, "serve as a distributed coordinator over shard congressd processes (needs -shard-endpoints or -shard-config)")
	shardEndpoints := fs.String("shard-endpoints", "", "comma-separated shard base URLs in ordinal order (with -coordinator)")
	shardConfig := fs.String("shard-config", "", `membership JSON file {"shards":["http://...",...]} (with -coordinator; alternative to -shard-endpoints)`)
	shardWait := fs.Duration("shard-wait", 30*time.Second, "how long the coordinator waits for every shard to answer health probes before serving")
	shardLegTimeout := fs.Duration("shard-leg-timeout", 10*time.Second, "per-shard fan-out attempt timeout on the coordinator")
	shardRetries := fs.Int("shard-retries", 2, "extra attempts per transiently failing fan-out leg before the query fails shard_unavailable (negative = none)")
	wf := addWarehouseFlags(fs)
	maxConcurrent := fs.Int("max-concurrent", 0, "max requests executing at once (0 = 4×GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "admission queue depth before shedding with 429 (0 = 4×max-concurrent)")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 60*time.Second, "upper clamp on client-requested timeout_ms")
	maxQueueWait := fs.Duration("max-queue-wait", 0, "cap on admission-queue wait before 504; execution deadline starts after the wait (0 = max-timeout)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	shutdownGrace := fs.Duration("shutdown-grace", 10*time.Second, "drain window for in-flight requests on SIGINT/SIGTERM")
	logLevel := fs.String("log-level", "info", "debug|info|warn|error")
	dataDir := fs.String("data-dir", "", "durable data directory: snapshot + WAL crash recovery (empty = in-memory only)")
	follow := fs.String("follow", "", "replicate from this leader base URL (read-only follower mode; requires -data-dir)")
	fsyncFlag := fs.String("fsync", "always", "WAL durability under -data-dir: always|interval|none")
	fsyncInterval := fs.Duration("fsync-interval", 50*time.Millisecond, "fsync period under -fsync=interval")
	snapInterval := fs.Duration("snapshot-interval", 5*time.Minute, "background snapshot period (negative disables the timer)")
	snapInserts := fs.Int64("snapshot-inserts", 100_000, "background snapshot after this many inserts (negative disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// flag.Parse stops at the first non-flag word; serving with
		// defaults as if nothing followed it would hide the typo.
		if fs.Arg(0) == "loadgen" {
			return errors.New("usage: congressd [serve] [flags]: the loadgen mode is gone, benchmark with `bash bench/run.sh`")
		}
		return fmt.Errorf("usage: congressd [serve] [flags]: unexpected argument %q", fs.Arg(0))
	}
	log, err := newLogger(*logLevel)
	if err != nil {
		return err
	}

	var (
		w        *congress.Warehouse
		co       *congress.Coordinator
		leader   *repl.Leader
		follower *repl.Follower
	)
	if *coordinator {
		switch {
		case *dataDir != "":
			return errors.New("serve: the coordinator holds no data; -data-dir belongs on the shard processes")
		case *follow != "":
			return errors.New("serve: -coordinator cannot be combined with -follow")
		case *wf.shardIndex >= 0:
			return errors.New("serve: -coordinator and -shard-index are different roles; run them as separate processes")
		}
		var endpoints []string
		switch {
		case *shardEndpoints != "" && *shardConfig != "":
			return errors.New("serve: use one of -shard-endpoints and -shard-config, not both")
		case *shardEndpoints != "":
			endpoints = splitCSV(*shardEndpoints)
		case *shardConfig != "":
			mem, err := shard.LoadMembership(*shardConfig)
			if err != nil {
				return err
			}
			endpoints = mem.Endpoints
		default:
			return errors.New("serve: -coordinator needs -shard-endpoints or -shard-config")
		}
		co, err = congress.NewCoordinator(endpoints, congress.CoordinatorOptions{
			LegTimeout: *shardLegTimeout,
			Retries:    *shardRetries,
		})
		if err != nil {
			return err
		}
		waitCtx, cancel := context.WithTimeout(context.Background(), *shardWait)
		err = co.WaitHealthy(waitCtx, 250*time.Millisecond)
		cancel()
		if err != nil {
			return fmt.Errorf("serve: shards not healthy: %w", err)
		}
		discCtx, cancel := context.WithTimeout(context.Background(), *shardWait)
		err = co.Discover(discCtx)
		cancel()
		if err != nil {
			return fmt.Errorf("serve: shard discovery: %w", err)
		}
		log.Info("coordinator ready", slog.Int("shards", co.NumShards()),
			slog.String("endpoints", strings.Join(co.Endpoints(), ",")))
	} else if *follow != "" {
		if *dataDir == "" {
			return errors.New("serve: -follow needs -data-dir for the shipped snapshot and WAL")
		}
		if w, follower, err = startFollower(*follow, *dataDir, log); err != nil {
			return err
		}
		w.ConfigureCache(*wf.cacheEntries, *wf.cacheBytes)
		defer follower.Close()
	} else if *dataDir != "" {
		mode, err := congress.ParseFsyncMode(*fsyncFlag)
		if err != nil {
			return err
		}
		var rs congress.RecoveryStats
		w, rs, err = congress.OpenDir(*dataDir, congress.PersistOptions{
			Fsync:            mode,
			FsyncInterval:    *fsyncInterval,
			SnapshotInterval: *snapInterval,
			SnapshotEvery:    *snapInserts,
		})
		if err != nil {
			return err
		}
		log.Info("data directory recovered",
			slog.String("dir", *dataDir),
			slog.Bool("snapshot_loaded", rs.SnapshotLoaded),
			slog.Int("skipped_snapshots", rs.SkippedSnapshots),
			slog.Int("replayed_records", rs.ReplayedRecords),
			slog.Int64("truncated_bytes", rs.TruncatedBytes),
			slog.Duration("took", rs.Elapsed))
		w.ConfigureCache(*wf.cacheEntries, *wf.cacheBytes)
		if len(w.Synopses()) == 0 {
			if err := populateWarehouse(w, wf, log); err != nil {
				return err
			}
			// The attached base table is only durable once snapshotted;
			// force one now so a crash cannot strand the logged
			// build-synopsis record without its table.
			if err := w.TriggerSnapshot(); err != nil {
				return err
			}
		} else {
			log.Info("serving recovered warehouse", slog.Int("synopses", len(w.Synopses())))
		}
		leader = repl.NewLeader(w.PersistManager(), repl.LeaderOptions{Logger: log})
	} else {
		if w, err = buildWarehouse(wf, log); err != nil {
			return err
		}
	}
	srv := server.New(server.Options{
		Warehouse:      w,
		Coordinator:    co,
		ReplLeader:     leader,
		Follower:       follower,
		Logger:         log,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxQueueWait:   *maxQueueWait,
		RetryAfter:     *retryAfter,
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "congressd listening on %s\n", bound)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var fatalErr error
	if follower != nil {
		// A terminal replication error (divergence, pruned history,
		// corrupt local state) cannot heal in-process: exit non-zero so a
		// supervisor restarts us and the bootstrap path re-syncs.
		select {
		case <-ctx.Done():
		case ferr := <-follower.Fatal():
			log.Error("replication failed; shutting down", slog.String("err", ferr.Error()))
			fatalErr = fmt.Errorf("replication: %w", ferr)
		}
	} else {
		<-ctx.Done()
	}
	stop()

	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	err = srv.Shutdown(drainCtx)
	if fatalErr != nil && err == nil {
		err = fatalErr
	}
	// After the drain no more mutations arrive: flush the final snapshot
	// and close the WAL so the next start replays nothing. The coordinator
	// holds no warehouse of its own, so there is nothing to close there.
	if w != nil {
		if cerr := w.Close(); cerr != nil {
			log.Error("closing warehouse", slog.String("err", cerr.Error()))
			if err == nil {
				err = cerr
			}
		}
	}
	return err
}

// startFollower boots a read-only replica: a fresh in-memory warehouse
// restored from local replica state when it replays cleanly, otherwise
// from a snapshot shipped by the leader.
func startFollower(leaderURL, dir string, log *slog.Logger) (*congress.Warehouse, *repl.Follower, error) {
	w := congress.Open()
	f, err := repl.NewFollower(repl.FollowerOptions{
		Leader: leaderURL,
		Dir:    dir,
		Target: w,
		Logger: log,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := f.Start(); err != nil {
		return nil, nil, err
	}
	return w, f, nil
}
