package persist

import (
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/approxdb/congress/internal/metrics"
)

// Options configures a Manager.
type Options struct {
	// Mode is the WAL fsync policy (default SyncAlways).
	Mode SyncMode
	// SyncInterval is the fsync period for SyncInterval (default 50ms).
	SyncInterval time.Duration
	// SnapshotInterval triggers a background snapshot this often
	// (default 5m; negative disables the timer).
	SnapshotInterval time.Duration
	// SnapshotEvery triggers a background snapshot after this many
	// logged inserts (default 100000; negative disables).
	SnapshotEvery int64
	// KeepSnapshots is how many snapshot generations to retain
	// (default 2; the WAL segments an old retained snapshot still needs
	// are retained with it).
	KeepSnapshots int
	// Telemetry receives persist_* counters (nil is allowed).
	Telemetry *metrics.Telemetry
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	if o.SnapshotInterval == 0 {
		o.SnapshotInterval = 5 * time.Minute
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 100000
	}
	return o
}

// Manager owns a data directory: it logs mutations to the current WAL
// segment, writes snapshots that compact the log, and prunes files no
// retained snapshot needs.
//
// The manager mutex serializes every logged mutation against snapshot
// cuts: a mutation is applied and its record appended to the segment
// under the same critical section that a snapshot uses to export state
// and rotate segments. The invariant that makes recovery exact: the
// snapshot of generation S contains every mutation logged to segments
// of generation < S and none from segment S.
type Manager struct {
	dir  string
	opts Options
	tel  *metrics.Telemetry

	// export captures the warehouse state; called under mu, so it must
	// deep-copy anything that keeps mutating (the aqua/core export
	// paths do).
	export func() (*State, error)

	mu               sync.Mutex
	wal              *WAL
	gen              uint64
	insertsSinceSnap int64
	// closedSegs caches the record count and intact length of rotated
	// segments for Manifest/SegmentStatus; entries for segments that
	// predate this Manager are filled lazily by scanning.
	closedSegs map[uint64]SegmentInfo

	snapMu sync.Mutex // serializes whole snapshots, not the cut

	snapCh chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// Start opens (creating if needed) a data directory for logging, writes
// a fresh snapshot of the current exported state, and launches the
// background snapshotter. The caller is responsible for having already
// recovered dir's prior contents into the warehouse (see Recover);
// Start's initial snapshot then supersedes them.
func Start(dir string, opts Options, export func() (*State, error)) (*Manager, error) {
	if export == nil {
		return nil, fmt.Errorf("persist: Start needs an export function")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	maxGen, err := maxGeneration(dir)
	if err != nil {
		return nil, err
	}
	gen := maxGen + 1
	wal, err := CreateWAL(WALPath(dir, gen), opts.Mode, opts.SyncInterval, opts.Telemetry)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		dir:        dir,
		opts:       opts,
		tel:        opts.Telemetry,
		export:     export,
		wal:        wal,
		gen:        gen,
		closedSegs: make(map[uint64]SegmentInfo),
		snapCh:     make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}
	// The initial snapshot carries the recovered (or fresh) state and
	// makes every older snapshot and segment prunable. The manager is
	// not published yet, so nothing can log concurrently with this
	// export; callers enabling persistence on a live warehouse must
	// still barrier their own mutations (see Warehouse.EnablePersistence).
	start := time.Now()
	st, err := export()
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("persist: exporting state: %w", err)
	}
	if err := m.writeSnapshot(gen, st, start); err != nil {
		wal.Close()
		return nil, err
	}
	m.wg.Add(1)
	go m.snapshotLoop()
	return m, nil
}

// maxGeneration returns the highest generation among all snap-* and
// wal-* files in dir (0 if none).
func maxGeneration(dir string) (uint64, error) {
	var max uint64
	for _, prefix := range []string{"snap-", "wal-"} {
		gens, err := listGens(dir, prefix)
		if err != nil {
			return 0, err
		}
		if len(gens) > 0 && gens[len(gens)-1] > max {
			max = gens[len(gens)-1]
		}
	}
	return max, nil
}

// Dir returns the managed data directory.
func (m *Manager) Dir() string { return m.dir }

// Log applies a mutation and appends its record, atomically with
// respect to snapshot cuts: either the snapshot contains the applied
// mutation, or the record lands in a segment the snapshot does not
// cover — never both, never neither. The append reaches the OS before
// Log returns; under SyncAlways, Log additionally blocks until the
// record is fsynced (batched with concurrent committers).
//
// apply runs under the manager mutex and must not call back into the
// manager. If apply fails nothing is logged; if the append fails the
// mutation stays applied in memory and the error reports the durability
// gap.
func (m *Manager) Log(rec *Record, apply func() error) error {
	payload, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("persist: manager is closed")
	}
	if err := apply(); err != nil {
		m.mu.Unlock()
		return err
	}
	seq, werr := m.wal.Append(payload)
	wal := m.wal
	var snapDue bool
	if rec.Kind == RecInsert {
		m.insertsSinceSnap++
		snapDue = m.opts.SnapshotEvery > 0 && m.insertsSinceSnap >= m.opts.SnapshotEvery
	}
	m.mu.Unlock()
	if werr != nil {
		return fmt.Errorf("persist: mutation applied but not logged: %w", werr)
	}
	if snapDue {
		m.RequestSnapshot()
	}
	// Wait for group commit outside the mutex so concurrent committers
	// batch into one fsync and snapshots never stall behind disk flushes.
	return wal.WaitDurable(seq)
}

// RequestSnapshot nudges the background snapshotter asynchronously;
// bursts coalesce into one snapshot. Use Snapshot for a synchronous
// write.
func (m *Manager) RequestSnapshot() {
	select {
	case m.snapCh <- struct{}{}:
	default:
	}
}

// Snapshot writes a snapshot of the current state now, rotating the WAL
// so the new snapshot compacts everything logged before it. Concurrent
// calls are serialized; mutations are only blocked for the in-memory
// state export and segment swap, not the disk write.
func (m *Manager) Snapshot() error {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("persist: manager is closed")
	}
	err := m.rotateAndSnapshotLocked()
	return err
}

// rotateAndSnapshotLocked is the shared snapshot path. It is entered
// holding m.mu (which it releases) and m.snapMu. The state export and
// the segment swap happen under the same m.mu critical section: a
// mutation logged before the cut is in the export and only in segments
// the new snapshot covers; one logged after lands in the new segment,
// which the snapshot does not cover. Exporting after releasing m.mu
// would let a racing Log land in both the export and the new snapshot's
// own segment, duplicating it on replay.
func (m *Manager) rotateAndSnapshotLocked() error {
	start := time.Now()
	newGen := m.gen + 1
	newWAL, err := CreateWAL(WALPath(m.dir, newGen), m.opts.Mode, m.opts.SyncInterval, m.tel)
	if err != nil {
		m.mu.Unlock()
		return fmt.Errorf("persist: rotating WAL: %w", err)
	}
	st, err := m.export()
	if err != nil {
		m.mu.Unlock()
		newWAL.Close()
		os.Remove(WALPath(m.dir, newGen))
		return fmt.Errorf("persist: exporting state: %w", err)
	}
	oldWAL := m.wal
	// Record the rotated segment's final shape while appends are still
	// excluded: nothing can land in oldWAL once m.wal is swapped.
	m.closedSegs[m.gen] = SegmentInfo{Gen: m.gen, Size: oldWAL.Size(), Records: int64(oldWAL.Seq())}
	m.wal = newWAL
	m.gen = newGen
	m.insertsSinceSnap = 0
	m.mu.Unlock()

	if err := oldWAL.Close(); err != nil {
		return fmt.Errorf("persist: closing rotated WAL: %w", err)
	}
	return m.writeSnapshot(newGen, st, start)
}

// writeSnapshot writes a pre-captured state as snapshot generation gen,
// then prunes. The disk write happens outside every lock but snapMu;
// the caller captured st under m.mu so the cut is exact.
func (m *Manager) writeSnapshot(gen uint64, st *State, start time.Time) error {
	size, err := WriteSnapshot(m.dir, gen, st)
	if err != nil {
		return err
	}
	m.tel.ObserveSnapshot(size, time.Since(start))
	m.prune()
	return nil
}

// prune applies the retention rule and forgets the deleted segments.
func (m *Manager) prune() {
	removed := Prune(m.dir, m.opts.KeepSnapshots)
	m.mu.Lock()
	for _, gen := range removed {
		delete(m.closedSegs, gen)
	}
	m.mu.Unlock()
}

// Prune is the retention rule for a data directory, a leader's or a
// follower's: all but the newest keep snapshots are deleted (keep < 1
// means 2, the Options default), and so is every WAL segment older than
// the oldest snapshot kept. It returns the generations of the segments
// it deleted. Failures are left for the next call — a file that outlives
// its turn is harmless.
func Prune(dir string, keep int) (removed []uint64) {
	if keep < 1 {
		keep = 2
	}
	snaps, err := listGens(dir, "snap-")
	if err != nil || len(snaps) == 0 {
		return nil
	}
	keepFrom := max(len(snaps)-keep, 0)
	for _, gen := range snaps[:keepFrom] {
		os.Remove(SnapPath(dir, gen))
	}
	wals, err := listGens(dir, "wal-")
	if err != nil {
		return nil
	}
	for _, gen := range wals {
		if gen < snaps[keepFrom] {
			os.Remove(WALPath(dir, gen))
			removed = append(removed, gen)
		}
	}
	return removed
}

// Reseed makes snapshot gen the whole of dir's history, deleting every
// WAL segment and every other snapshot. A follower seeding itself from a
// shipped snapshot restarts that snapshot's segment from its header and
// appends to any segment file it finds: one left from before would hold
// its records twice, and the next Recover would replay both copies.
func Reseed(dir string, gen uint64) error {
	segs, err := listGens(dir, "wal-")
	if err != nil {
		return err
	}
	for _, g := range segs {
		if err := os.Remove(WALPath(dir, g)); err != nil {
			return err
		}
	}
	snaps, err := listGens(dir, "snap-")
	if err != nil {
		return err
	}
	for _, g := range snaps {
		if g == gen {
			continue
		}
		if err := os.Remove(SnapPath(dir, g)); err != nil {
			return err
		}
	}
	return nil
}

// snapshotLoop runs background snapshots on the insert-count trigger
// and the wall-clock timer.
func (m *Manager) snapshotLoop() {
	defer m.wg.Done()
	var tick <-chan time.Time
	if m.opts.SnapshotInterval > 0 {
		t := time.NewTicker(m.opts.SnapshotInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-m.stop:
			return
		case <-m.snapCh:
		case <-tick:
			m.mu.Lock()
			dirty := m.insertsSinceSnap > 0
			m.mu.Unlock()
			if !dirty {
				continue
			}
		}
		if err := m.Snapshot(); err != nil {
			// Background snapshot failures are not fatal: the WAL still
			// holds every mutation. The next trigger retries.
			continue
		}
	}
}

// Close drains the manager: stops the background snapshotter, writes a
// final snapshot, and closes the WAL. Closing is idempotent and safe
// against concurrent callers; the first caller wins and later ones
// return nil without re-closing. Log rejects from the moment Close
// begins, so no acknowledged mutation can land after the final
// snapshot's cut.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	close(m.stop)
	m.wg.Wait()

	// Final snapshot so the next open replays nothing. Snapshot() would
	// refuse now that closed is set, so enter the rotate path directly;
	// an in-flight Snapshot serializes with us on snapMu.
	m.snapMu.Lock()
	m.mu.Lock()
	snapErr := m.rotateAndSnapshotLocked()
	m.snapMu.Unlock()

	m.mu.Lock()
	wal := m.wal
	m.mu.Unlock()
	if err := wal.Close(); err != nil {
		return err
	}
	return snapErr
}

// Stats is a point-in-time view of the manager for diagnostics.
type Stats struct {
	Dir              string
	Generation       uint64
	InsertsSinceSnap int64
	Mode             SyncMode
	// DurableOffset is the current segment's replication watermark in
	// bytes (the length followers may safely ship).
	DurableOffset int64
	// RecordSeq is the number of records appended to the current
	// segment.
	RecordSeq int64
}

// Stats reports the manager's current generation and backlog.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	wal := m.wal
	s := Stats{
		Dir:              m.dir,
		Generation:       m.gen,
		InsertsSinceSnap: m.insertsSinceSnap,
		Mode:             m.opts.Mode,
	}
	m.mu.Unlock()
	s.DurableOffset = wal.Watermark()
	s.RecordSeq = int64(wal.Seq())
	return s
}
