package repl

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/persist"
)

// fakeTarget is a minimal replication Target: it records the int values
// of applied inserts and of rows carried by restored snapshots.
type fakeTarget struct {
	mu       sync.Mutex
	restores int
	rows     []int64
}

func (ft *fakeTarget) RestoreSnapshot(st *persist.State) error {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.restores++
	ft.rows = nil
	for _, tbl := range st.Tables {
		for _, r := range tbl.Rows {
			ft.rows = append(ft.rows, r[0].I)
		}
	}
	return nil
}

func (ft *fakeTarget) ApplyRecord(rec *persist.Record) error {
	if rec.Kind != persist.RecInsert {
		return nil
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.rows = append(ft.rows, rec.Row[0].I)
	return nil
}

func (ft *fakeTarget) values() []int64 {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return append([]int64(nil), ft.rows...)
}

func (ft *fakeTarget) count() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return len(ft.rows)
}

// replHarness is a leader stand-in: a persist.Manager whose exported
// state is a single int-column table, served through a real Leader
// behind an httptest server. The handler can be swapped (leader
// restart) and WAL responses mutated once (fault injection).
type replHarness struct {
	t   *testing.T
	dir string
	srv *httptest.Server

	mu     sync.Mutex
	rows   []engine.Row
	mgr    *persist.Manager
	ld     *Leader
	mux    *http.ServeMux
	inject func([]byte) []byte
	down   bool
}

func newHarness(t *testing.T, keepSnapshots int) *replHarness {
	h := &replHarness{t: t, dir: t.TempDir()}
	h.startManager(keepSnapshots)
	h.srv = httptest.NewServer(http.HandlerFunc(h.serve))
	t.Cleanup(func() {
		h.srv.Close()
		h.manager().Close()
	})
	return h
}

func (h *replHarness) export() (*persist.State, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rows := make([]engine.Row, len(h.rows))
	copy(rows, h.rows)
	return &persist.State{Tables: []persist.TableState{{
		Name: "t",
		Cols: []engine.Column{{Name: "x", Kind: engine.KindInt}},
		Rows: rows,
	}}}, nil
}

func (h *replHarness) startManager(keepSnapshots int) {
	mgr, err := persist.Start(h.dir, persist.Options{
		Mode:             persist.SyncAlways,
		SnapshotInterval: -1,
		SnapshotEvery:    -1,
		KeepSnapshots:    keepSnapshots,
	}, h.export)
	if err != nil {
		h.t.Fatal(err)
	}
	ld := NewLeader(mgr, LeaderOptions{
		MaxChunk:     64, // a few records per chunk, so tails take several polls
		PollInterval: 2 * time.Millisecond,
		Logger:       quietLogger(),
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/manifest", ld.HandleManifest)
	mux.HandleFunc("GET /v1/repl/snapshot/{gen}", ld.HandleSnapshot)
	mux.HandleFunc("GET /v1/repl/wal/{gen}", ld.HandleWAL)
	h.mu.Lock()
	h.mgr, h.ld, h.mux = mgr, ld, mux
	h.mu.Unlock()
}

func (h *replHarness) manager() *persist.Manager {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mgr
}

// restartManager emulates a leader process restart over the same data
// directory: clean close (final snapshot), then a fresh manager at a
// higher generation, served at the same URL.
func (h *replHarness) restartManager(keepSnapshots int) {
	if err := h.manager().Close(); err != nil {
		h.t.Fatal(err)
	}
	h.startManager(keepSnapshots)
}

func (h *replHarness) insert(v int64) { h.insertRow(engine.Row{engine.NewInt(v)}) }

func (h *replHarness) insertRow(row engine.Row) {
	rec := &persist.Record{Kind: persist.RecInsert, Table: "t", Row: row}
	err := h.manager().Log(rec, func() error {
		h.mu.Lock()
		h.rows = append(h.rows, rec.Row)
		h.mu.Unlock()
		return nil
	})
	if err != nil {
		h.t.Fatal(err)
	}
}

func (h *replHarness) values() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int64, len(h.rows))
	for i, r := range h.rows {
		out[i] = r[0].I
	}
	return out
}

// injectWALOnce arms a one-shot mutation of the next non-empty WAL
// chunk body.
func (h *replHarness) injectWALOnce(fn func([]byte) []byte) {
	h.mu.Lock()
	h.inject = fn
	h.mu.Unlock()
}

// setDown makes the server answer 503 (leader unreachable, transient
// for followers) until cleared.
func (h *replHarness) setDown(down bool) {
	h.mu.Lock()
	h.down = down
	h.mu.Unlock()
}

func (h *replHarness) serve(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	mux, inject, down := h.mux, h.inject, h.down
	h.mu.Unlock()
	if down {
		http.Error(w, "leader restarting", http.StatusServiceUnavailable)
		return
	}
	if inject != nil && strings.HasPrefix(r.URL.Path, "/v1/repl/wal/") {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && len(body) > 0 {
			body = inject(body)
			h.mu.Lock()
			h.inject = nil
			h.mu.Unlock()
		}
		for k, vs := range rec.Header() {
			if k == "Content-Length" {
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body)
		return
	}
	mux.ServeHTTP(w, r)
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func startTestFollower(t *testing.T, h *replHarness, ft *fakeTarget, dir string) *Follower {
	t.Helper()
	f, err := NewFollower(FollowerOptions{
		Leader:           h.srv.URL,
		Dir:              dir,
		Target:           ft,
		ID:               "test-follower",
		WaitMS:           50,
		MinBackoff:       5 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		BootstrapTimeout: 5 * time.Second,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func sameValues(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	h := newHarness(t, 2)
	for i := 0; i < 5; i++ {
		h.insert(int64(i))
	}
	ft := &fakeTarget{}
	f := startTestFollower(t, h, ft, t.TempDir())

	waitFor(t, "initial tail", func() bool { return ft.count() == 5 && f.Status().CaughtUp })
	for i := 5; i < 12; i++ {
		h.insert(int64(i))
	}
	waitFor(t, "live tail", func() bool { return ft.count() == 12 && f.Status().CaughtUp })
	if !sameValues(ft.values(), h.values()) {
		t.Fatalf("follower rows %v != leader rows %v", ft.values(), h.values())
	}
	st := f.Status()
	if st.LagRecords != 0 || st.RecordsApplied != 12 {
		t.Fatalf("caught-up status: %+v", st)
	}

	// The leader observes this follower's progress by id; its view trails
	// by one poll (applied is reported before a chunk lands), so wait for
	// the next long-poll to carry the final count.
	h.mu.Lock()
	ld := h.ld
	h.mu.Unlock()
	waitFor(t, "leader observing zero lag", func() bool {
		fv, ok := ld.Status().Followers["test-follower"]
		return ok && fv.LagRecords == 0
	})
	var sb strings.Builder
	ld.RenderMetrics(&sb)
	if !strings.Contains(sb.String(), `repl_follower_lag_records{follower="test-follower"} 0`) {
		t.Fatalf("leader metrics missing follower lag:\n%s", sb.String())
	}
}

func TestFollowerRotationAndLocalSegments(t *testing.T) {
	h := newHarness(t, 2)
	ft := &fakeTarget{}
	fdir := t.TempDir()
	f := startTestFollower(t, h, ft, fdir)
	startGen := f.Status().Gen

	for i := 0; i < 4; i++ {
		h.insert(int64(i))
	}
	waitFor(t, "pre-rotation tail", func() bool { return ft.count() == 4 && f.Status().CaughtUp })

	if err := h.manager().Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 6; i++ {
		h.insert(int64(100 + i))
	}
	waitFor(t, "post-rotation tail", func() bool {
		st := f.Status()
		return ft.count() == 6 && st.Gen == startGen+1 && st.CaughtUp
	})
	if !sameValues(ft.values(), h.values()) {
		t.Fatalf("follower rows %v != leader rows %v", ft.values(), h.values())
	}
	if f.Status().SegmentsShipped < 1 {
		t.Fatal("rotation did not count a shipped segment")
	}
	if _, err := os.Stat(persist.WALPath(fdir, startGen+1)); err != nil {
		t.Fatalf("follower has no local copy of the new segment: %v", err)
	}
}

func TestFollowerRejectsBitFlippedChunk(t *testing.T) {
	h := newHarness(t, 2)
	ft := &fakeTarget{}
	fdir := t.TempDir()
	f := startTestFollower(t, h, ft, fdir)
	waitFor(t, "bootstrap", func() bool { return f.Status().CaughtUp })

	// Flip one bit in the next shipped chunk: the whole chunk must be
	// rejected before anything reaches the local WAL, then re-fetched.
	h.injectWALOnce(func(body []byte) []byte {
		out := append([]byte(nil), body...)
		out[len(out)-1] ^= 0x01
		return out
	})
	for i := 0; i < 5; i++ {
		h.insert(int64(i))
	}
	waitFor(t, "recovery after bit flip", func() bool { return ft.count() == 5 && f.Status().CaughtUp })
	if got := f.Status().ChunksRejected; got < 1 {
		t.Fatalf("chunks rejected = %d, want >= 1", got)
	}
	if !sameValues(ft.values(), h.values()) {
		t.Fatalf("follower rows %v != leader rows %v", ft.values(), h.values())
	}

	// The local segment replays clean: the corrupt chunk never touched it.
	gen := f.Status().Gen
	f.Close()
	n, truncated, err := persist.ReadWAL(persist.WALPath(fdir, gen), func([]byte) error { return nil })
	if err != nil || n != 5 || truncated != 0 {
		t.Fatalf("local segment: n=%d truncated=%d err=%v, want 5 clean records", n, truncated, err)
	}
}

func TestFollowerRejectsTornChunk(t *testing.T) {
	h := newHarness(t, 2)
	ft := &fakeTarget{}
	f := startTestFollower(t, h, ft, t.TempDir())
	waitFor(t, "bootstrap", func() bool { return f.Status().CaughtUp })

	// Ship a chunk cut mid-frame (a torn transfer): rejected whole.
	h.injectWALOnce(func(body []byte) []byte { return body[:len(body)-3] })
	for i := 0; i < 5; i++ {
		h.insert(int64(i))
	}
	waitFor(t, "recovery after torn chunk", func() bool { return ft.count() == 5 && f.Status().CaughtUp })
	if got := f.Status().ChunksRejected; got < 1 {
		t.Fatalf("chunks rejected = %d, want >= 1", got)
	}
	if !sameValues(ft.values(), h.values()) {
		t.Fatalf("follower rows %v != leader rows %v", ft.values(), h.values())
	}
}

func TestFollowerRestartResumesFromLocalDisk(t *testing.T) {
	h := newHarness(t, 2)
	ft := &fakeTarget{}
	fdir := t.TempDir()
	f := startTestFollower(t, h, ft, fdir)
	for i := 0; i < 6; i++ {
		h.insert(int64(i))
	}
	waitFor(t, "first follower tail", func() bool { return ft.count() == 6 && f.Status().CaughtUp })
	f.Close()

	ft2 := &fakeTarget{}
	f2 := startTestFollower(t, h, ft2, fdir)
	// Start returned, so bootstrap is complete — from local disk alone.
	if got := ft2.count(); got != 6 {
		t.Fatalf("restarted follower replayed %d records from disk, want 6", got)
	}
	if got := f2.snapshotsFetched.Load(); got != 0 {
		t.Fatalf("restart fetched %d snapshots from the leader, want 0 (local resume)", got)
	}
	for i := 6; i < 9; i++ {
		h.insert(int64(i))
	}
	waitFor(t, "resumed tail", func() bool { return ft2.count() == 9 && f2.Status().CaughtUp })
	if !sameValues(ft2.values(), h.values()) {
		t.Fatalf("follower rows %v != leader rows %v", ft2.values(), h.values())
	}
}

func TestFollowerSurvivesLeaderRestart(t *testing.T) {
	h := newHarness(t, 3)
	ft := &fakeTarget{}
	f := startTestFollower(t, h, ft, t.TempDir())
	startGen := f.Status().Gen

	for i := 0; i < 3; i++ {
		h.insert(int64(i))
	}
	waitFor(t, "pre-restart tail", func() bool { return ft.count() == 3 && f.Status().CaughtUp })

	// Restart jumps two generations (close writes a final snapshot at
	// G+1, the fresh manager starts at G+2) but stays contiguous, so the
	// follower walks through both rotations.
	h.restartManager(3)
	for i := 3; i < 5; i++ {
		h.insert(int64(i))
	}
	waitFor(t, "post-restart tail", func() bool {
		st := f.Status()
		return ft.count() == 5 && st.Gen == startGen+2 && st.CaughtUp
	})
	if !sameValues(ft.values(), h.values()) {
		t.Fatalf("follower rows %v != leader rows %v", ft.values(), h.values())
	}
	select {
	case err := <-f.Fatal():
		t.Fatalf("follower died on a contiguous restart: %v", err)
	default:
	}
}

func TestFollowerRebootstrapsOnPrunedHistory(t *testing.T) {
	h := newHarness(t, 2)
	ft := &fakeTarget{}
	f := startTestFollower(t, h, ft, t.TempDir())
	for i := 0; i < 3; i++ {
		h.insert(int64(i))
	}
	waitFor(t, "pre-restart tail", func() bool { return ft.count() == 3 && f.Status().CaughtUp })

	// Hold the follower off (503s are transient, so it backs off without
	// advancing), restart the leader, and prune every segment below the
	// new generation. Whatever segment the follower resumes on is gone;
	// it re-seeds from the leader's newest snapshot and keeps tailing.
	h.setDown(true)
	h.restartManager(2)
	newGen := h.manager().Stats().Generation
	for g := uint64(1); g < newGen; g++ {
		os.Remove(persist.WALPath(h.dir, g))
	}
	h.setDown(false)
	waitFor(t, "re-converge after pruned history", func() bool {
		st := f.Status()
		return st.CaughtUp && st.Rebootstraps >= 1 && sameValues(ft.values(), h.values())
	})
	select {
	case err := <-f.Fatal():
		t.Fatalf("follower died instead of re-bootstrapping: %v", err)
	default:
	}
}

func TestFollowerDiesWithoutSnapshotToRebootstrapFrom(t *testing.T) {
	h := newHarness(t, 2)
	ft := &fakeTarget{}
	f := startTestFollower(t, h, ft, t.TempDir())
	for i := 0; i < 3; i++ {
		h.insert(int64(i))
	}
	waitFor(t, "pre-restart tail", func() bool { return ft.count() == 3 && f.Status().CaughtUp })

	// Prune the follower's segment AND every snapshot that could heal
	// it: with no newer snapshot on offer the gap really is fatal.
	h.setDown(true)
	h.restartManager(2)
	newGen := h.manager().Stats().Generation
	for g := uint64(1); g < newGen; g++ {
		os.Remove(persist.WALPath(h.dir, g))
	}
	snaps, err := persist.ListSnapshots(h.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range snaps {
		os.Remove(persist.SnapPath(h.dir, g))
	}
	h.setDown(false)
	select {
	case err := <-f.Fatal():
		if !IsTerminal(err) {
			t.Fatalf("fatal error not terminal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never reported the unhealable gap as fatal")
	}
}

// A record larger than the leader's MaxChunk (64 bytes here) cannot fit
// any capped chunk: it must still ship whole, apply, and replay from the
// follower's own disk after a restart.
func TestFollowerShipsRecordLargerThanMaxChunk(t *testing.T) {
	h := newHarness(t, 2)
	ft := &fakeTarget{}
	fdir := t.TempDir()
	f := startTestFollower(t, h, ft, fdir)
	h.insert(1)
	h.insertRow(engine.Row{engine.NewInt(2), engine.NewString(strings.Repeat("x", 300))})
	h.insert(3)
	waitFor(t, "oversized record applied", func() bool { return ft.count() == 3 && f.Status().CaughtUp })
	if !sameValues(ft.values(), h.values()) {
		t.Fatalf("follower rows %v != leader rows %v", ft.values(), h.values())
	}
	if got := f.Status().ChunksRejected; got != 0 {
		t.Fatalf("%d chunks rejected: the leader cut a frame", got)
	}
	f.Close()

	ft2 := &fakeTarget{}
	f2 := startTestFollower(t, h, ft2, fdir)
	if got := ft2.count(); got != 3 || f2.snapshotsFetched.Load() != 0 {
		t.Fatalf("restart replayed %d records with %d snapshot fetches, want 3 from local disk alone",
			got, f2.snapshotsFetched.Load())
	}
	h.insert(4)
	waitFor(t, "tail after restart", func() bool { return ft2.count() == 4 && f2.Status().CaughtUp })
	if !sameValues(ft2.values(), h.values()) {
		t.Fatalf("follower rows %v != leader rows %v", ft2.values(), h.values())
	}
}
