package congress

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// noTriggers disables the background snapshotter so tests control
// exactly when snapshots happen.
var noTriggers = PersistOptions{
	Fsync:            FsyncNone,
	SnapshotInterval: -1,
	SnapshotEvery:    -1,
}

// buildDurableSales populates a durable warehouse at dir with the
// standard skewed sales data plus a synopsis.
func buildDurableSales(t *testing.T, dir string) *Warehouse {
	t.Helper()
	w, _, err := OpenDir(dir, noTriggers)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := w.CreateTable("sales",
		Col("region", String), Col("product", String), Col("amount", Float))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(region, product string, n int, base float64) {
		for i := 0; i < n; i++ {
			if err := tbl.Insert(Str(region), Str(product), F(base+float64(i%10))); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert("east", "pen", 2000, 10)
	insert("west", "pen", 600, 12)
	insert("tiny", "pen", 20, 100)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 400,
		Strategy: Congress, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCloseOpenDirAllocationIdentical(t *testing.T) {
	w, _ := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region", "product"}, Space: 800,
		Strategy: Congress, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	before, err := w.AllocationTable("sales")
	if err != nil {
		t.Fatal(err)
	}
	exactBefore, err := w.Query(`select region, sum(amount) from sales group by region order by region`)
	if err != nil {
		t.Fatal(err)
	}
	approxBefore, err := w.Approx(`select region, sum(amount) from sales group by region order by region`)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := w.EnablePersistence(dir, noTriggers); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, stats, err := OpenDir(dir, noTriggers)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !stats.SnapshotLoaded || stats.ReplayedRecords != 0 {
		t.Fatalf("stats %+v, want a snapshot load with no replay", stats)
	}

	after, err := w2.AllocationTable("sales")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("allocation table changed across save/restore:\nbefore %+v\nafter  %+v", before, after)
	}
	exactAfter, err := w2.Query(`select region, sum(amount) from sales group by region order by region`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exactBefore.Rows, exactAfter.Rows) {
		t.Fatal("exact answers differ after restore")
	}
	// The restored sample relations hold the same rows, so the same
	// approximate answer comes back.
	approxAfter, err := w2.Approx(`select region, sum(amount) from sales group by region order by region`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(approxBefore.Rows, approxAfter.Rows) {
		t.Fatalf("approx answers differ after restore:\nbefore %v\nafter  %v", approxBefore.Rows, approxAfter.Rows)
	}
}

func TestRestoreAdvancesEpochs(t *testing.T) {
	w, _ := buildSalesWarehouse(t)
	if err := w.BuildSynopsis(SynopsisSpec{
		Table: "sales", GroupBy: []string{"region"}, Space: 300, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	states, err := w.aq.ExportStates()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := w.EnablePersistence(dir, noTriggers); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, _, err := OpenDir(dir, noTriggers)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	restored, err := w2.aq.ExportStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(states) {
		t.Fatalf("synopsis count %d vs %d", len(restored), len(states))
	}
	for i := range states {
		if restored[i].Epoch <= states[i].Epoch {
			t.Errorf("synopsis %d epoch %d did not advance past persisted %d",
				i, restored[i].Epoch, states[i].Epoch)
		}
	}
}

func TestOpenDirReplaysWALSuffix(t *testing.T) {
	dir := t.TempDir()
	w := buildDurableSales(t, dir)
	// The build forced nothing durable beyond the WAL yet; add rows that
	// only the log carries, then "crash" by not closing.
	tbl, err := w.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(Str("late"), Str("ink"), F(5)); err != nil {
			t.Fatal(err)
		}
	}
	wantRows := tbl.NumRows()

	w2, stats, err := OpenDir(dir, noTriggers)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if stats.ReplayedRecords == 0 {
		t.Fatalf("stats %+v: expected WAL replay after a crash without close", stats)
	}
	tbl2, err := w2.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.NumRows() != wantRows {
		t.Fatalf("recovered %d rows, want %d", tbl2.NumRows(), wantRows)
	}
	// Populations per group (deterministic counts, unlike sample draws)
	// must match the pre-crash warehouse.
	wantPop := map[string]int64{}
	before, err := w.AllocationTable("sales")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range before {
		wantPop[fmt.Sprint(r.Group)] = r.Population
	}
	after, err := w2.AllocationTable("sales")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after {
		if wantPop[fmt.Sprint(r.Group)] != r.Population {
			t.Errorf("group %v population %d, want %d", r.Group, r.Population, wantPop[fmt.Sprint(r.Group)])
		}
	}
	if _, err := w2.Approx(`select region, count(*) from sales group by region`); err != nil {
		t.Fatalf("approx on recovered warehouse: %v", err)
	}
}

func TestOpenDirTruncatesTornWALTail(t *testing.T) {
	dir := t.TempDir()
	w := buildDurableSales(t, dir)
	tbl, _ := w.Table("sales")
	for i := 0; i < 20; i++ {
		if err := tbl.Insert(Str("torn"), Str("pen"), F(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash, then tear the newest WAL segment: cut mid-frame as an
	// interrupted append would.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:4] == "wal-" && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatal("no WAL segment found")
	}
	path := filepath.Join(dir, newest)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	w2, stats, err := OpenDir(dir, noTriggers)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer w2.Close()
	if stats.TruncatedBytes == 0 {
		t.Fatalf("stats %+v: torn tail not reported", stats)
	}
	tbl2, err := w2.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one insert (the torn final frame) is lost.
	if want := tbl.NumRows() - 1; tbl2.NumRows() != want {
		t.Fatalf("recovered %d rows, want %d (one torn record lost)", tbl2.NumRows(), want)
	}
}

func TestOpenDirSkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	w := buildDurableSales(t, dir)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot; recovery must fall back to an older
	// valid one and still come up.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var newest string
	for _, e := range entries {
		if len(e.Name()) > 5 && e.Name()[:5] == "snap-" && e.Name() > newest {
			newest = e.Name()
		}
	}
	path := filepath.Join(dir, newest)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x80
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, stats, err := OpenDir(dir, noTriggers)
	if err != nil {
		t.Fatalf("open with corrupt snapshot: %v", err)
	}
	defer w2.Close()
	if stats.SkippedSnapshots == 0 {
		t.Fatalf("stats %+v: corrupt snapshot not counted", stats)
	}
	tbl, err := w2.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() == 0 {
		t.Fatal("fallback recovery lost the table")
	}
}

func TestOpenDirTwiceIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	w := buildDurableSales(t, dir)
	tbl, _ := w.Table("sales")
	wantRows := tbl.NumRows()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		w2, _, err := OpenDir(dir, noTriggers)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		tbl2, err := w2.Table("sales")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tbl2.NumRows() != wantRows {
			t.Fatalf("round %d: %d rows, want %d", round, tbl2.NumRows(), wantRows)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
	}
}

func TestEnablePersistenceTwiceFails(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenDir(dir, noTriggers)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.EnablePersistence(dir, noTriggers); err == nil {
		t.Fatal("second EnablePersistence succeeded")
	}
	if _, ok := w.PersistStats(); !ok {
		t.Fatal("PersistStats reports persistence off")
	}
}

func TestTriggerSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	w := buildDurableSales(t, dir)
	defer w.Close()
	before, ok := w.PersistStats()
	if !ok {
		t.Fatal("persistence off")
	}
	if before.InsertsSinceSnapshot == 0 {
		t.Fatal("no logged inserts before the snapshot")
	}
	if err := w.TriggerSnapshot(); err != nil {
		t.Fatal(err)
	}
	after, _ := w.PersistStats()
	if after.Generation <= before.Generation {
		t.Fatalf("generation %d did not advance past %d", after.Generation, before.Generation)
	}
	if after.InsertsSinceSnapshot != 0 {
		t.Fatalf("%d inserts still pending after snapshot", after.InsertsSinceSnapshot)
	}
}

func TestTriggerSnapshotWithoutPersistenceFails(t *testing.T) {
	w := Open()
	if err := w.TriggerSnapshot(); err == nil {
		t.Fatal("snapshot on a non-persistent warehouse succeeded")
	}
	if _, ok := w.PersistStats(); ok {
		t.Fatal("PersistStats reports persistence on")
	}
}
