package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/engine"
)

func testState(marker string) *State {
	return &State{Tables: []TableState{{
		Name: "t",
		Cols: []engine.Column{{Name: "x", Kind: engine.KindString}},
		Rows: []engine.Row{{engine.NewString(marker)}},
	}}}
}

func stateMarker(st *State) string {
	if st == nil || len(st.Tables) == 0 || len(st.Tables[0].Rows) == 0 {
		return ""
	}
	return st.Tables[0].Rows[0][0].S
}

func TestSnapshotRoundtrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, 7, testState("alpha")); err != nil {
		t.Fatal(err)
	}
	st, err := ReadSnapshot(SnapPath(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	if stateMarker(st) != "alpha" {
		t.Fatalf("roundtrip lost state: %+v", st)
	}
	// No temp file remains.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestLoadNewestSkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, 3, testState("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, 5, testState("new")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot's payload: a bit flip fails the CRC.
	path := SnapPath(dir, 5)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, gen, skipped, err := LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 || skipped != 1 || stateMarker(st) != "old" {
		t.Fatalf("gen=%d skipped=%d marker=%q, want the older valid snapshot", gen, skipped, stateMarker(st))
	}
}

func TestLoadNewestTruncatedSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(dir, 1, testState("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(dir, 2, testState("cut")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that left a half-written file under a snap name
	// (only possible if rename ordering is subverted; recovery must
	// still cope).
	path := SnapPath(dir, 2)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	st, gen, skipped, err := LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || skipped != 1 || stateMarker(st) != "ok" {
		t.Fatalf("gen=%d skipped=%d marker=%q", gen, skipped, stateMarker(st))
	}
}

func TestLoadNewestEmptyDir(t *testing.T) {
	st, gen, skipped, err := LoadNewestSnapshot(t.TempDir())
	if err != nil || st != nil || gen != 0 || skipped != 0 {
		t.Fatalf("empty dir: st=%v gen=%d skipped=%d err=%v", st, gen, skipped, err)
	}
}

func TestParseGen(t *testing.T) {
	if gen, ok := parseGen("snap-000000000000000a", "snap-"); !ok || gen != 10 {
		t.Fatalf("gen=%d ok=%v", gen, ok)
	}
	for _, bad := range []string{"snap-xyz", "wal-0001", "snapshot", ".snap-0001.tmp"} {
		if _, ok := parseGen(bad, "snap-"); ok {
			t.Errorf("%q parsed as a snapshot", bad)
		}
	}
}

func TestManagerLogRotatePruneRecover(t *testing.T) {
	dir := t.TempDir()
	// The "warehouse": a mutable row list the export closure snapshots.
	var rows []engine.Row
	export := func() (*State, error) {
		st := &State{Tables: []TableState{{
			Name: "t",
			Cols: []engine.Column{{Name: "x", Kind: engine.KindInt}},
			Rows: append([]engine.Row(nil), rows...),
		}}}
		return st, nil
	}
	m, err := Start(dir, Options{Mode: SyncNone, SnapshotInterval: -1, SnapshotEvery: -1}, export)
	if err != nil {
		t.Fatal(err)
	}
	logInsert := func(i int64) {
		t.Helper()
		rec := &Record{Kind: RecInsert, Table: "t", Row: engine.Row{engine.NewInt(i)}}
		if err := m.Log(rec, func() error {
			rows = append(rows, rec.Row)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 10; i++ {
		logInsert(i)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := int64(10); i < 15; i++ {
		logInsert(i)
	}
	st := m.Stats()
	if st.InsertsSinceSnap != 5 {
		t.Fatalf("inserts since snapshot %d, want 5", st.InsertsSinceSnap)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Snapshot == nil {
		t.Fatal("no snapshot recovered")
	}
	// Close wrote a final snapshot, so the full state is in it and the
	// newest WAL segment is empty.
	if got := len(info.Snapshot.Tables[0].Rows); got != 15 {
		t.Fatalf("snapshot carries %d rows, want 15", got)
	}
	if len(info.Records) != 0 {
		t.Fatalf("replaying %d records after a clean close, want 0", len(info.Records))
	}
	if info.TruncatedBytes != 0 || info.DeletedSegments != 0 {
		t.Fatalf("clean dir reported truncation: %+v", info)
	}

	// Pruning retained at most KeepSnapshots (default 2) snapshots and no
	// WAL older than the oldest kept snapshot.
	snaps, _ := listGens(dir, "snap-")
	if len(snaps) > 2 {
		t.Fatalf("%d snapshots retained, want <= 2", len(snaps))
	}
	wals, _ := listGens(dir, "wal-")
	for _, g := range wals {
		if g < snaps[0] {
			t.Fatalf("wal generation %d predates oldest snapshot %d", g, snaps[0])
		}
	}
}

func TestRecoverReplaysWALSuffixAfterKill(t *testing.T) {
	dir := t.TempDir()
	var rows []engine.Row
	export := func() (*State, error) {
		return &State{Tables: []TableState{{
			Name: "t",
			Cols: []engine.Column{{Name: "x", Kind: engine.KindInt}},
			Rows: append([]engine.Row(nil), rows...),
		}}}, nil
	}
	m, err := Start(dir, Options{Mode: SyncNone, SnapshotInterval: -1, SnapshotEvery: -1}, export)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		rec := &Record{Kind: RecInsert, Table: "t", Row: engine.Row{engine.NewInt(i)}}
		if err := m.Log(rec, func() error { rows = append(rows, rec.Row); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate a crash. The Start snapshot is empty and all 8
	// inserts live in the WAL.
	info, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Snapshot == nil || len(info.Snapshot.Tables[0].Rows) != 0 {
		t.Fatalf("want the empty start snapshot, got %+v", info.Snapshot)
	}
	if len(info.Records) != 8 {
		t.Fatalf("replaying %d records, want 8", len(info.Records))
	}
	for i, rec := range info.Records {
		if rec.Kind != RecInsert || rec.Row[0].I != int64(i) {
			t.Fatalf("record %d out of order: %+v", i, rec)
		}
	}
	m.Close() // release the file handle; test already asserted pre-close state
}

func TestRecoverStopsAtTornEarlierSegment(t *testing.T) {
	dir := t.TempDir()
	// Segment 1: two intact records then a torn tail. Segment 2: intact.
	// Replay must stop at the tear — records in segment 2 were logged
	// after the lost ones — and keep stopping there on every later
	// recovery, after the tear itself has been truncated away.
	mkSeg := func(gen uint64, vals []int64) string {
		t.Helper()
		w, err := CreateWAL(WALPath(dir, gen), SyncNone, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if _, err := w.Append(mustEncode(t, v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return WALPath(dir, gen)
	}
	seg1 := mkSeg(1, []int64{1, 2, 3})
	mkSeg(2, []int64{4, 5})
	fi, _ := os.Stat(seg1)
	if err := os.Truncate(seg1, fi.Size()-2); err != nil {
		t.Fatal(err)
	}

	intact := fi.Size() - (8 + int64(len(mustEncode(t, 3))))
	for round, deleted := range []int{1, 0} {
		info, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Records) != 2 {
			t.Fatalf("recovery %d replayed %d records, want 2 (stop at the tear)", round+1, len(info.Records))
		}
		if (info.TruncatedBytes > 0) != (round == 0) {
			t.Fatalf("recovery %d truncated %d bytes", round+1, info.TruncatedBytes)
		}
		if info.DeletedSegments != deleted {
			t.Fatalf("recovery %d deleted %d segments, want %d", round+1, info.DeletedSegments, deleted)
		}
		if want := (SegmentInfo{Gen: 1, Size: intact, Records: 2}); info.Tail != want {
			t.Fatalf("recovery %d tail %+v, want %+v", round+1, info.Tail, want)
		}
	}
}

func mustEncode(t *testing.T, v int64) []byte {
	t.Helper()
	payload, err := EncodeRecord(&Record{Kind: RecInsert, Table: "t", Row: engine.Row{engine.NewInt(v)}})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestRecoverMissingDir(t *testing.T) {
	info, err := Recover(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Snapshot != nil || len(info.Records) != 0 || info.MaxGen != 0 {
		t.Fatalf("missing dir recovered non-empty: %+v", info)
	}
}
