package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/approxdb/congress/internal/aqua"
	"github.com/approxdb/congress/internal/engine"
)

// Snapshot file layout:
//
//	8  bytes  magic "CGRSNP01"
//	4  bytes  format version (little endian)
//	8  bytes  payload length
//	N  bytes  gob-encoded State
//	4  bytes  CRC32C of the payload
//
// The file is written to a dot-prefixed temp name, fsynced, and
// atomically renamed into place, so a crash mid-write can never leave a
// half-written file under a snap-* name.

const (
	snapMagic   = "CGRSNP01"
	snapVersion = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is the complete persisted warehouse: base relations and every
// synopsis's exported state. Sample relations (cs_*, csn_*, csk_*) are
// not stored — they are re-materialized from the synopsis states on
// restore.
type State struct {
	Tables   []TableState
	Synopses []*aqua.SynopsisState
}

// TableState is one base relation.
type TableState struct {
	Name string
	Cols []engine.Column
	Rows []engine.Row
}

// SnapPath returns the snapshot filename for a generation.
func SnapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x", gen))
}

// WALPath returns the WAL segment filename for a generation.
func WALPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x", gen))
}

// parseGen extracts the generation from a "snap-<hex>" or "wal-<hex>"
// basename.
func parseGen(base, prefix string) (uint64, bool) {
	if !strings.HasPrefix(base, prefix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimPrefix(base, prefix), 16, 64)
	return gen, err == nil
}

// listGens returns the sorted generations of files with the given
// prefix ("snap-" or "wal-") in dir.
func listGens(dir, prefix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if gen, ok := parseGen(e.Name(), prefix); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// WriteSnapshot writes the state as snapshot generation gen, returning
// the file size. The write is atomic: a temp file is fully written and
// fsynced before being renamed to the final name, and the directory is
// fsynced after the rename.
func WriteSnapshot(dir string, gen uint64, st *State) (int64, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return 0, fmt.Errorf("persist: encoding snapshot: %w", err)
	}

	header := make([]byte, 0, 20)
	header = append(header, snapMagic...)
	header = binary.LittleEndian.AppendUint32(header, snapVersion)
	header = binary.LittleEndian.AppendUint64(header, uint64(payload.Len()))
	trailer := binary.LittleEndian.AppendUint32(nil, crc32.Checksum(payload.Bytes(), castagnoli))

	final := SnapPath(dir, gen)
	tmp := filepath.Join(dir, "."+filepath.Base(final)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	cleanup := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	for _, chunk := range [][]byte{header, payload.Bytes(), trailer} {
		if _, err := f.Write(chunk); err != nil {
			return cleanup(fmt.Errorf("persist: writing snapshot: %w", err))
		}
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("persist: syncing snapshot: %w", err))
	}
	size := int64(len(header) + payload.Len() + len(trailer))
	if err := f.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(dir)
	return size, nil
}

// syncDir fsyncs a directory so a rename is durable; errors are ignored
// (some filesystems refuse directory fsync) — the rename itself already
// ordered the data writes.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// ReadSnapshot reads and verifies one snapshot file.
func ReadSnapshot(path string) (*State, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(snapMagic)+12+4 {
		return nil, fmt.Errorf("persist: snapshot %s too short (%d bytes)", path, len(raw))
	}
	if string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("persist: snapshot %s has bad magic", path)
	}
	raw = raw[len(snapMagic):]
	version := binary.LittleEndian.Uint32(raw)
	if version != snapVersion {
		return nil, fmt.Errorf("persist: snapshot %s has unsupported version %d", path, version)
	}
	n := binary.LittleEndian.Uint64(raw[4:])
	raw = raw[12:]
	if uint64(len(raw)) != n+4 {
		return nil, fmt.Errorf("persist: snapshot %s payload length %d disagrees with file size", path, n)
	}
	payload, trailer := raw[:n], raw[n:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("persist: snapshot %s fails checksum", path)
	}
	st := &State{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("persist: decoding snapshot %s: %w", path, err)
	}
	return st, nil
}

// LoadNewestSnapshot finds the newest readable, checksum-valid snapshot
// in dir. It returns (nil, 0, 0, nil) when no snapshot exists; corrupt
// or unreadable snapshots are skipped (counted in skipped) and an older
// valid one is used instead.
func LoadNewestSnapshot(dir string) (st *State, gen uint64, skipped int, err error) {
	gens, err := listGens(dir, "snap-")
	if err != nil {
		return nil, 0, 0, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		st, rerr := ReadSnapshot(SnapPath(dir, gens[i]))
		if rerr == nil {
			return st, gens[i], skipped, nil
		}
		skipped++
	}
	return nil, 0, skipped, nil
}
