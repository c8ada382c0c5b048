package congress

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/persist"
)

// FsyncMode selects the WAL durability policy for persistent
// warehouses.
type FsyncMode = persist.SyncMode

// Fsync modes for PersistOptions (the congressd -fsync flag).
const (
	// FsyncAlways fsyncs before acknowledging every insert, batching
	// concurrent writers into one fsync.
	FsyncAlways = persist.SyncAlways
	// FsyncInterval fsyncs on a timer; a machine crash can lose up to
	// one interval of acknowledged writes.
	FsyncInterval = persist.SyncInterval
	// FsyncNone never fsyncs outside shutdown; acknowledged writes
	// survive process crashes but not machine crashes.
	FsyncNone = persist.SyncNone
)

// ParseFsyncMode resolves a -fsync flag value
// (always|interval|none, empty means always).
func ParseFsyncMode(s string) (FsyncMode, error) { return persist.ParseSyncMode(s) }

// PersistOptions configures warehouse durability.
type PersistOptions struct {
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync FsyncMode
	// FsyncInterval is the fsync period under FsyncInterval
	// (default 50ms).
	FsyncInterval time.Duration
	// SnapshotInterval triggers a background snapshot this often
	// (default 5m; negative disables the timer).
	SnapshotInterval time.Duration
	// SnapshotEvery triggers a background snapshot after this many
	// inserts (default 100000; negative disables).
	SnapshotEvery int64
}

// RecoveryStats reports what OpenDir found and replayed.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a valid snapshot was restored.
	SnapshotLoaded bool
	// SkippedSnapshots counts corrupt snapshots passed over for an
	// older valid one.
	SkippedSnapshots int
	// ReplayedRecords is the number of WAL records replayed.
	ReplayedRecords int
	// TruncatedBytes is how many torn WAL tail bytes were cut.
	TruncatedBytes int64
	// Elapsed is the total recovery wall time.
	Elapsed time.Duration
}

// OpenDir opens a durable warehouse backed by dir: it loads the newest
// valid snapshot, truncates any torn WAL tail, replays the remaining
// log through the normal insert and DDL paths, writes a fresh recovery
// snapshot, and continues logging. A missing or empty dir opens an
// empty durable warehouse.
//
// Every restored synopsis's epoch is strictly above its persisted one,
// so answers cached against pre-recovery state can never be served.
// Sampling randomness is reseeded on restore; the restored samples are
// identical, and future sampling follows the same distribution (RNG
// internals are deliberately not persisted).
func OpenDir(dir string, opts PersistOptions) (*Warehouse, RecoveryStats, error) {
	start := time.Now()
	w := Open()
	info, err := persist.Recover(dir)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	stats := RecoveryStats{
		SnapshotLoaded:   info.Snapshot != nil,
		SkippedSnapshots: info.SkippedSnapshots,
		ReplayedRecords:  len(info.Records),
		TruncatedBytes:   info.TruncatedBytes,
	}
	if info.Snapshot != nil {
		if err := w.restoreState(info.Snapshot); err != nil {
			return nil, stats, err
		}
	}
	for i, rec := range info.Records {
		if err := w.applyRecord(rec); err != nil {
			return nil, stats, fmt.Errorf("congress: replaying WAL record %d: %w", i, err)
		}
	}
	stats.Elapsed = time.Since(start)
	w.aq.Telemetry().ObserveRecovery(stats.Elapsed, int64(len(info.Records)), info.TruncatedBytes)
	if err := w.EnablePersistence(dir, opts); err != nil {
		return nil, stats, err
	}
	return w, stats, nil
}

// EnablePersistence attaches a WAL and background snapshotter to an
// open warehouse. The current state is snapshotted immediately; every
// later insert and DDL is logged. Fails if persistence is already
// enabled.
func (w *Warehouse) EnablePersistence(dir string, opts PersistOptions) error {
	// Hold the enable barrier exclusively across Start: every mutation
	// either completes before Start's initial snapshot export (and is
	// in the snapshot) or begins after w.mgr is published (and is
	// logged). Start calls back into exportState, which takes pmu — so
	// pmu itself cannot be held across Start; pbar can, because neither
	// exportState nor the manager ever acquires it.
	w.pbar.Lock()
	defer w.pbar.Unlock()
	w.pmu.Lock()
	if w.mgr != nil {
		cur := w.mgr.Dir()
		w.pmu.Unlock()
		return fmt.Errorf("congress: persistence already enabled (dir %s)", cur)
	}
	w.pmu.Unlock()
	mgr, err := persist.Start(dir, persist.Options{
		Mode:             opts.Fsync,
		SyncInterval:     opts.FsyncInterval,
		SnapshotInterval: opts.SnapshotInterval,
		SnapshotEvery:    opts.SnapshotEvery,
		Telemetry:        w.aq.Telemetry(),
	}, w.exportState)
	if err != nil {
		return err
	}
	w.pmu.Lock()
	w.mgr = mgr
	w.pmu.Unlock()
	return nil
}

// Close drains a persistent warehouse: a final snapshot is written and
// the WAL is flushed and closed. A warehouse without persistence
// closes as a no-op. The warehouse must not be mutated afterwards.
func (w *Warehouse) Close() error {
	w.pmu.Lock()
	mgr := w.mgr
	w.mgr = nil
	w.pmu.Unlock()
	if mgr == nil {
		return nil
	}
	return mgr.Close()
}

// TriggerSnapshot writes a snapshot now and compacts the WAL behind
// it. Fails if persistence is not enabled.
func (w *Warehouse) TriggerSnapshot() error {
	mgr := w.manager()
	if mgr == nil {
		return fmt.Errorf("congress: persistence is not enabled")
	}
	return mgr.Snapshot()
}

// PersistStats reports the durability layer's current state; ok is
// false when persistence is not enabled.
type PersistStats struct {
	// Dir is the data directory.
	Dir string
	// Generation is the current snapshot/WAL generation.
	Generation uint64
	// InsertsSinceSnapshot counts logged inserts the newest snapshot
	// does not cover.
	InsertsSinceSnapshot int64
	// Fsync is the active durability policy.
	Fsync FsyncMode
	// DurableWALOffset is the current segment's durable byte length —
	// the replication watermark followers may safely ship to.
	DurableWALOffset int64
	// RecordSeq is the number of records appended to the current
	// segment.
	RecordSeq int64
}

// PersistStats reports the durability layer's state.
func (w *Warehouse) PersistStats() (PersistStats, bool) {
	mgr := w.manager()
	if mgr == nil {
		return PersistStats{}, false
	}
	s := mgr.Stats()
	return PersistStats{
		Dir:                  s.Dir,
		Generation:           s.Generation,
		InsertsSinceSnapshot: s.InsertsSinceSnap,
		Fsync:                s.Mode,
		DurableWALOffset:     s.DurableOffset,
		RecordSeq:            s.RecordSeq,
	}, true
}

// PersistManager exposes the underlying persist manager (nil when
// persistence is not enabled). Replication wraps it to serve the data
// directory to followers; it is read-only with respect to warehouse
// state.
func (w *Warehouse) PersistManager() *persist.Manager { return w.manager() }

// RestoreSnapshot rebuilds the warehouse from a persisted state through
// the same path recovery uses. It is meant for an empty warehouse — a
// replication follower bootstrapping from a shipped snapshot; restoring
// over existing tables fails.
func (w *Warehouse) RestoreSnapshot(st *persist.State) error { return w.restoreState(st) }

// ApplyRecord replays one WAL record through the normal mutation paths
// without logging it. Replication followers apply shipped records with
// it, so maintainer feeds and epoch bumps behave exactly as on the
// leader. The follower warehouse must not have persistence enabled —
// its durability is the shipped files themselves.
func (w *Warehouse) ApplyRecord(rec *persist.Record) error { return w.applyRecord(rec) }

func (w *Warehouse) manager() *persist.Manager {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	return w.mgr
}

// logged routes a mutation through the WAL when persistence is enabled
// (apply-then-log under the manager mutex) and applies it directly
// otherwise. The shared pbar hold pins the persistence decision: the
// mutation cannot interleave with an EnablePersistence in progress, so
// it is either fully in the initial snapshot or fully logged.
func (w *Warehouse) logged(rec *persist.Record, apply func() error) error {
	w.pbar.RLock()
	defer w.pbar.RUnlock()
	mgr := w.manager()
	if mgr == nil {
		return apply()
	}
	return mgr.Log(rec, apply)
}

// noteBaseTable records a relation as base data the snapshot must
// carry (sample relations are rebuilt from synopsis state instead).
func (w *Warehouse) noteBaseTable(name string) {
	w.pmu.Lock()
	w.baseTables[strings.ToLower(name)] = true
	w.pmu.Unlock()
}

// exportState assembles the warehouse's persist.State: every base
// relation plus every synopsis's exported state. Called by the persist
// manager under its mutation mutex, so logged mutations cannot
// interleave with the cut.
func (w *Warehouse) exportState() (*persist.State, error) {
	w.pmu.Lock()
	names := make([]string, 0, len(w.baseTables))
	for name := range w.baseTables {
		names = append(names, name)
	}
	w.pmu.Unlock()
	sort.Strings(names)

	st := &persist.State{}
	for _, name := range names {
		rel, ok := w.cat.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("congress: base table %q vanished from the catalog", name)
		}
		st.Tables = append(st.Tables, persist.TableState{
			Name: rel.Name,
			Cols: append([]engine.Column(nil), rel.Schema.Cols...),
			Rows: rel.Rows(),
		})
	}
	syns, err := w.aq.ExportStates()
	if err != nil {
		return nil, err
	}
	st.Synopses = syns
	return st, nil
}

// restoreState rebuilds tables and synopses from a snapshot.
func (w *Warehouse) restoreState(st *persist.State) error {
	for _, ts := range st.Tables {
		schema, err := engine.NewSchema(ts.Cols...)
		if err != nil {
			return fmt.Errorf("congress: restoring table %q: %w", ts.Name, err)
		}
		rel := engine.NewRelation(ts.Name, schema)
		if err := rel.InsertAll(ts.Rows); err != nil {
			return fmt.Errorf("congress: restoring table %q: %w", ts.Name, err)
		}
		w.cat.Register(rel)
		w.noteBaseTable(ts.Name)
	}
	for _, ss := range st.Synopses {
		if _, err := w.aq.RestoreSynopsis(ss); err != nil {
			return err
		}
	}
	return nil
}

// applyRecord replays one WAL record through the normal mutation
// paths, without re-logging (persistence is attached only after
// replay finishes).
func (w *Warehouse) applyRecord(rec *persist.Record) error {
	switch rec.Kind {
	case persist.RecInsert:
		tbl, err := w.Table(rec.Table)
		if err != nil {
			return err
		}
		return tbl.insertRow(rec.Row)
	case persist.RecCreateTable:
		_, err := w.CreateTable(rec.Table, rec.Cols...)
		return err
	case persist.RecBuildSynopsis:
		if rec.Synopsis == nil {
			return fmt.Errorf("congress: build-synopsis record without a config")
		}
		_, err := w.aq.CreateSynopsis(*rec.Synopsis)
		return err
	case persist.RecUpdateScaleFactor:
		_, err := w.aq.UpdateScaleFactor(rec.Table, RewriteStrategy(rec.Rewrite), rec.GroupKey, rec.SF)
		return err
	case persist.RecRefreshSynopsis:
		return w.aq.Refresh(rec.Table)
	case persist.RecAttachRelation:
		schema, err := engine.NewSchema(rec.Cols...)
		if err != nil {
			return fmt.Errorf("congress: replaying attach of %q: %w", rec.Table, err)
		}
		rel := engine.NewRelation(rec.Table, schema)
		if err := rel.InsertAll(rec.Rows); err != nil {
			return fmt.Errorf("congress: replaying attach of %q: %w", rec.Table, err)
		}
		w.cat.Register(rel)
		w.noteBaseTable(rec.Table)
		return nil
	case persist.RecBuildJoinSynopsis:
		if rec.Join == nil || rec.Synopsis == nil {
			return fmt.Errorf("congress: build-join-synopsis record missing join or config")
		}
		if _, err := w.aq.CreateJoinSynopsis(*rec.Join, *rec.Synopsis); err != nil {
			return err
		}
		w.noteBaseTable(rec.Join.Name)
		return nil
	default:
		return fmt.Errorf("congress: unknown WAL record kind %d", rec.Kind)
	}
}

// UpdateScaleFactor overrides the stored scale factor of one group in a
// table's materialized sample relations (all layouts), returning how
// many rows changed. The synopsis's epoch advances so cached answers
// are invalidated. Like a refresh, the override lasts until the next
// re-materialization — including the one a snapshot-restore performs —
// so durable deployments should treat it as a tuning hint, not state.
func (w *Warehouse) UpdateScaleFactor(table string, strat RewriteStrategy, groupKey string, sf float64) (int, error) {
	updated := 0
	err := w.logged(&persist.Record{
		Kind:     persist.RecUpdateScaleFactor,
		Table:    table,
		Rewrite:  int(strat),
		GroupKey: groupKey,
		SF:       sf,
	}, func() error {
		n, err := w.aq.UpdateScaleFactor(table, strat, groupKey, sf)
		updated = n
		return err
	})
	return updated, err
}
