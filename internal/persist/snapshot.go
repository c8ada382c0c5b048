package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
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
// Every snapshot file, written here or shipped by a replication leader,
// is installed the same way: written to a dot-prefixed temp name,
// fsynced, verified, atomically renamed into place and made durable by a
// directory fsync, so a crash mid-write can never leave a half-written
// file under a snap-* name.

const (
	snapMagic      = "CGRSNP01"
	snapVersion    = 1
	snapHeaderSize = len(snapMagic) + 4 + 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is the complete persisted warehouse: base relations and every
// synopsis's exported state. Sample relations (cs_* and the aux
// relations csn_*_aux, csk_*_aux) are not stored — they are
// re-materialized from the synopsis states on restore.
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
// the file size.
func WriteSnapshot(dir string, gen uint64, st *State) (int64, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, snapHeaderSize))
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return 0, fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	file := buf.Bytes()
	payload := file[snapHeaderSize:]
	copy(file, snapMagic)
	binary.LittleEndian.PutUint32(file[len(snapMagic):], snapVersion)
	binary.LittleEndian.PutUint64(file[len(snapMagic)+4:], uint64(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(payload, castagnoli))
	err := installSnapshot(dir, gen, bytes.NewReader(file), func(raw []byte) error {
		_, err := snapshotPayload(raw)
		return err
	})
	if err != nil {
		return 0, err
	}
	return int64(len(file)), nil
}

// InstallSnapshot streams a snapshot file from r into dir as generation
// gen, installing it only once it verifies and decodes, and returns the
// decoded state. Replication followers install shipped snapshots with it.
func InstallSnapshot(dir string, gen uint64, r io.Reader) (*State, error) {
	var st *State
	err := installSnapshot(dir, gen, r, func(raw []byte) (err error) {
		st, err = decodeSnapshot(raw)
		return err
	})
	return st, err
}

// installSnapshot copies r into a temp file, fsyncs it, reads it back
// through verify, renames it to generation gen's name and fsyncs the
// directory so the rename is durable too.
func installSnapshot(dir string, gen uint64, r io.Reader, verify func(raw []byte) error) error {
	final := SnapPath(dir, gen)
	tmp := filepath.Join(dir, "."+filepath.Base(final)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: installing snapshot %s: %w", final, err)
	}
	if _, err := io.Copy(f, r); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	raw, err := os.ReadFile(tmp)
	if err == nil {
		err = verify(raw)
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		return fail(err)
	}
	syncDir(dir)
	return nil
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
	st, err := decodeSnapshot(raw)
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot %s: %w", path, err)
	}
	return st, nil
}

// decodeSnapshot verifies a snapshot file's bytes and decodes its state.
func decodeSnapshot(raw []byte) (*State, error) {
	payload, err := snapshotPayload(raw)
	if err != nil {
		return nil, err
	}
	st := &State{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	return st, nil
}

// snapshotPayload checks a snapshot file's framing — magic, version,
// length and checksum — and returns its gob payload.
func snapshotPayload(raw []byte) ([]byte, error) {
	if len(raw) < snapHeaderSize+4 {
		return nil, fmt.Errorf("too short (%d bytes)", len(raw))
	}
	if string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("bad magic")
	}
	if version := binary.LittleEndian.Uint32(raw[len(snapMagic):]); version != snapVersion {
		return nil, fmt.Errorf("unsupported version %d", version)
	}
	n := binary.LittleEndian.Uint64(raw[len(snapMagic)+4:])
	payload, trailer := raw[snapHeaderSize:len(raw)-4], raw[len(raw)-4:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("payload length %d disagrees with file size", n)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("fails checksum")
	}
	return payload, nil
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
