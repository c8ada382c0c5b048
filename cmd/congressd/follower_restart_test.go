package main

import (
	"context"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/persist"
	"github.com/approxdb/congress/internal/repl"
	"github.com/approxdb/congress/internal/server"
	"github.com/approxdb/congress/internal/tpcd"
)

// flipByte damages one byte of the file; at < 0 picks the middle.
func flipByte(t *testing.T, path string, at int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if at < 0 {
		at = int64(len(raw)) / 2
	}
	if at >= int64(len(raw)) {
		t.Fatalf("%s has %d bytes, cannot flip byte %d", path, len(raw), at)
	}
	raw[at] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerRestartOverCorruptLocalState restarts a follower whose
// data directory was damaged while it was down, against a live leader
// that kept taking writes. The directory spans a rotation: two segments,
// and the snapshot between them only if the follower's compaction found
// it finished on the leader. Whatever is wrong with the local files,
// the leader still has everything: the restart must come up, converge
// on the leader's rows and estimates, and leave behind a directory that
// a second, undisturbed restart resumes from to the same state.
func TestFollowerRestartOverCorruptLocalState(t *testing.T) {
	// The first payload byte of a segment's first frame: every later
	// frame is intact but sits behind the bad one.
	const firstFrame = persist.SegmentHeaderSize + 8
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, snaps, segs []string) // paths, oldest first
	}{
		{"newest snapshot bit-flipped", func(t *testing.T, snaps, segs []string) {
			flipByte(t, snaps[len(snaps)-1], -1)
		}},
		// Nothing local to restore from: the leader's snapshot is fetched
		// while the segments it covers are still lying around.
		{"every snapshot bit-flipped", func(t *testing.T, snaps, segs []string) {
			for _, snap := range snaps {
				flipByte(t, snap, -1)
			}
		}},
		{"corrupt mid-segment frame", func(t *testing.T, snaps, segs []string) {
			flipByte(t, segs[len(segs)-1], firstFrame)
		}},
		{"corrupt segment header", func(t *testing.T, snaps, segs []string) {
			flipByte(t, segs[len(segs)-1], 0)
		}},
		// Replay starts at the oldest snapshot and loses the older
		// segment's records; the newer segment must not be applied over
		// the hole.
		{"corrupt frame behind a rotation", func(t *testing.T, snaps, segs []string) {
			for _, snap := range snaps[1:] {
				flipByte(t, snap, -1)
			}
			if len(segs) < 2 {
				t.Fatalf("segments %v do not span a rotation", segs)
			}
			flipByte(t, segs[0], firstFrame)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := slog.New(slog.NewTextHandler(io.Discard, nil))
			ctx := context.Background()

			lw, _, err := congress.OpenDir(t.TempDir(), congress.PersistOptions{
				Fsync: congress.FsyncNone, SnapshotInterval: -1, SnapshotEvery: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer lw.Close()
			rel, err := tpcd.Generate(tpcd.Params{TableSize: 2000, NumGroups: 20, GroupSkew: 0.86, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lw.AttachRelation(rel); err != nil {
				t.Fatal(err)
			}
			if err := lw.BuildSynopsis(congress.SynopsisSpec{
				Table: "lineitem", GroupBy: tpcd.GroupingAttrs, Space: 200, Seed: 1,
			}); err != nil {
				t.Fatal(err)
			}
			if err := lw.TriggerSnapshot(); err != nil {
				t.Fatal(err)
			}
			srv := server.New(server.Options{
				Warehouse:  lw,
				ReplLeader: repl.NewLeader(lw.PersistManager(), repl.LeaderOptions{Logger: log}),
				Logger:     log,
			})
			bound, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown(ctx)
			leaderURL := "http://" + bound

			nextID := int64(9_000_000)
			ingest := func(n int) {
				t.Helper()
				rows := make([]congress.Row, n)
				for i := range rows {
					nextID++
					rows[i] = congress.Row{congress.I(nextID), congress.I(nextID % 3), congress.I(nextID % 2),
						congress.D("1994-06-15"), congress.F(float64(1 + nextID%50)), congress.F(1200)}
				}
				if _, err := lw.InsertRows(ctx, "lineitem", rows); err != nil {
					t.Fatal(err)
				}
			}
			numRows := func(w *congress.Warehouse) int {
				tbl, err := w.Table("lineitem")
				if err != nil {
					return -1
				}
				return tbl.NumRows()
			}
			// converged waits until the follower holds exactly the leader's
			// rows, then requires identical estimates. A follower that
			// replayed a record twice overshoots and never gets there.
			converged := func(fw *congress.Warehouse, f *repl.Follower, when string) {
				t.Helper()
				deadline := time.Now().Add(20 * time.Second)
				for numRows(fw) != numRows(lw) || !f.Status().CaughtUp {
					select {
					case ferr := <-f.Fatal():
						t.Fatalf("%s: replication died: %v", when, ferr)
					default:
					}
					if time.Now().After(deadline) {
						t.Fatalf("%s: follower has %d rows, leader %d; status %+v",
							when, numRows(fw), numRows(lw), f.Status())
					}
					time.Sleep(10 * time.Millisecond)
				}
				want, err := lw.Estimate("lineitem", []string{"l_returnflag", "l_linestatus"}, congress.Sum, "l_quantity", 0.95)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fw.Estimate("lineitem", []string{"l_returnflag", "l_linestatus"}, congress.Sum, "l_quantity", 0.95)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) || len(want) == 0 {
					t.Fatalf("%s: %d groups, leader %d", when, len(got), len(want))
				}
				for i := range want {
					if got[i].Key != want[i].Key || math.Abs(got[i].Value-want[i].Value) > 1e-9 ||
						math.Abs(got[i].Bound-want[i].Bound) > 1e-9 {
						t.Fatalf("%s: group %q = %v±%v, leader %q = %v±%v", when,
							got[i].Key, got[i].Value, got[i].Bound, want[i].Key, want[i].Value, want[i].Bound)
					}
				}
			}

			dir := filepath.Join(t.TempDir(), "replica")
			fw, f, err := startFollower(leaderURL, dir, log)
			if err != nil {
				t.Fatal(err)
			}
			ingest(10)
			if err := lw.TriggerSnapshot(); err != nil {
				t.Fatal(err)
			}
			ingest(10)
			converged(fw, f, "first run")
			f.Close()

			snapGens, err := persist.ListSnapshots(dir)
			if err != nil || len(snapGens) == 0 {
				t.Fatalf("replica snapshots %v, err %v", snapGens, err)
			}
			segGens, err := persist.ListSegments(dir)
			if err != nil || len(segGens) == 0 {
				t.Fatalf("replica segments %v, err %v", segGens, err)
			}
			var snaps, segs []string
			for _, g := range snapGens {
				snaps = append(snaps, persist.SnapPath(dir, g))
			}
			for _, g := range segGens {
				segs = append(segs, persist.WALPath(dir, g))
			}
			tc.corrupt(t, snaps, segs)
			ingest(10)

			fw, f, err = startFollower(leaderURL, dir, log)
			if err != nil {
				t.Fatalf("restart over damaged directory: %v", err)
			}
			converged(fw, f, "restart over damaged directory")
			f.Close()

			ingest(5)
			fw, f, err = startFollower(leaderURL, dir, log)
			if err != nil {
				t.Fatalf("second restart: %v", err)
			}
			defer f.Close()
			converged(fw, f, "second restart")
		})
	}
}
