package persist

import (
	"fmt"
	"os"
)

// RecoveryInfo is the outcome of scanning a data directory.
type RecoveryInfo struct {
	// Snapshot is the newest valid snapshot's state, nil if none.
	Snapshot *State
	// SnapshotGen is the generation of that snapshot (0 if none).
	SnapshotGen uint64
	// SkippedSnapshots counts corrupt or unreadable snapshots that were
	// passed over for an older valid one.
	SkippedSnapshots int
	// Records is the WAL suffix to replay, in log order.
	Records []*Record
	// Tail is where the replayed log ends: the last replayed segment's
	// generation, intact length and record count (the snapshot's
	// generation with no records when no segment was replayed). A
	// replication follower resumes shipping there.
	Tail SegmentInfo
	// TruncatedBytes is how many torn-tail bytes were cut from the tail
	// segment.
	TruncatedBytes int64
	// DeletedSegments counts WAL segments removed because an earlier
	// segment ended in corruption (records past a tear are unordered
	// with respect to the lost ones, so replay must stop there).
	DeletedSegments int
	// MaxGen is the highest generation seen in the directory, counted
	// before any segment was deleted.
	MaxGen uint64
}

// Recover scans a data directory: it loads the newest valid snapshot,
// then decodes every WAL segment of generation >= the snapshot's,
// truncating a torn tail at the first bad frame and deleting every later
// segment. A missing or empty directory recovers to an empty
// RecoveryInfo. Recover does not apply anything — the caller (a
// restarting leader or a replication follower) replays Records through
// its normal mutation paths.
func Recover(dir string) (*RecoveryInfo, error) {
	info := &RecoveryInfo{}
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return info, nil
	} else if err != nil {
		return nil, err
	}

	st, snapGen, skipped, err := LoadNewestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	info.Snapshot = st
	info.SnapshotGen = snapGen
	info.SkippedSnapshots = skipped

	maxGen, err := maxGeneration(dir)
	if err != nil {
		return nil, err
	}
	info.MaxGen = maxGen

	wals, err := listGens(dir, "wal-")
	if err != nil {
		return nil, err
	}
	info.Tail = SegmentInfo{Gen: snapGen, Size: SegmentHeaderSize}
	for i, gen := range wals {
		if gen < snapGen {
			continue // compacted into the snapshot
		}
		tail, truncated, err := replayWAL(WALPath(dir, gen), func(payload []byte) error {
			rec, derr := DecodeRecord(payload)
			if derr != nil {
				// A frame that passes its checksum but fails to decode
				// is corruption beyond a torn tail; surface it.
				return derr
			}
			info.Records = append(info.Records, rec)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("persist: recovering %s: %w", WALPath(dir, gen), err)
		}
		tail.Gen = gen
		info.Tail = tail
		if truncated > 0 {
			info.TruncatedBytes = truncated
			// Records past a tear were logged after records that are now
			// lost; replaying later segments would reorder history. They
			// are deleted, not skipped: once the tear is truncated away
			// nothing else marks them, and a second Recover would splice
			// them in.
			for _, later := range wals[i+1:] {
				if err := os.Remove(WALPath(dir, later)); err != nil {
					return nil, err
				}
				info.DeletedSegments++
			}
			break
		}
	}
	return info, nil
}
