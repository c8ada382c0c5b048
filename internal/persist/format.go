// Package persist makes the warehouse durable: versioned, checksummed
// binary snapshots of the full warehouse state plus an append-only,
// CRC-framed write-ahead log of inserts and DDL. A Manager ties the two
// together — apply-then-log mutations under one mutex (so a snapshot is
// always an exact cut of the logged history), group-commit fsync
// batching, background snapshotting, and WAL compaction by generation.
//
// On-disk layout inside a data directory:
//
//	snap-<gen>   snapshot files (magic, version, gob payload, CRC32C)
//	wal-<gen>    WAL segments (magic, then CRC32C-framed records)
//
// Snapshots and WAL segments share one generation sequence with the
// invariant: the snapshot of generation S captures every record in WAL
// segments of generation < S. Recovery therefore loads the newest valid
// snapshot S and replays segments >= S in ascending order; a torn tail
// is truncated at the first bad checksum, and every later segment is
// deleted.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"

	"github.com/approxdb/congress/internal/aqua"
	"github.com/approxdb/congress/internal/engine"
)

// RecordKind discriminates WAL records.
type RecordKind uint8

// WAL record kinds.
const (
	// RecInsert is one row inserted into a base table.
	RecInsert RecordKind = 1
	// RecCreateTable registers a new empty table.
	RecCreateTable RecordKind = 2
	// RecBuildSynopsis builds a synopsis from the table contents at
	// replay position.
	RecBuildSynopsis RecordKind = 3
	// RecUpdateScaleFactor overrides one group's scale factor.
	RecUpdateScaleFactor RecordKind = 4
	// RecRefreshSynopsis re-materializes a synopsis from its maintainer.
	RecRefreshSynopsis RecordKind = 5
	// RecAttachRelation registers a bulk-loaded relation: schema plus
	// every row. Replayed ahead of any synopsis build over the table, so
	// live followers see attachments immediately instead of waiting for
	// the next snapshot rotation.
	RecAttachRelation RecordKind = 6
	// RecBuildJoinSynopsis materializes a star join and builds a synopsis
	// over it from the joined tables' contents at replay position (the
	// join is deterministic: fact-order iteration with unique-FK dimension
	// lookups, and the build seed rides in the config).
	RecBuildJoinSynopsis RecordKind = 7
)

// Record is one logged warehouse mutation. Kind selects which fields
// are meaningful.
type Record struct {
	Kind  RecordKind
	Table string

	// Row is the inserted tuple (RecInsert).
	Row engine.Row
	// Cols is the new table's schema (RecCreateTable,
	// RecAttachRelation).
	Cols []engine.Column
	// Rows is the attached relation's full contents (RecAttachRelation).
	Rows []engine.Row
	// Synopsis is the build configuration (RecBuildSynopsis,
	// RecBuildJoinSynopsis).
	Synopsis *aqua.Config
	// Join is the star-join shape (RecBuildJoinSynopsis).
	Join *aqua.JoinSpec
	// Rewrite, GroupKey, SF parameterize RecUpdateScaleFactor.
	Rewrite  int
	GroupKey string
	SF       float64
}

// Inserts dominate the log, so they use a compact hand-rolled binary
// encoding; the rare DDL records are gob-encoded (self-describing, at
// ~100 bytes of type overhead each). The first payload byte is the
// record kind either way.

// EncodeRecord serializes a record into a WAL payload.
func EncodeRecord(rec *Record) ([]byte, error) {
	if rec.Kind == RecInsert {
		return encodeInsert(rec)
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(rec.Kind))
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, fmt.Errorf("persist: encoding %d record: %w", rec.Kind, err)
	}
	return buf.Bytes(), nil
}

// DecodeRecord deserializes a WAL payload.
func DecodeRecord(payload []byte) (*Record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("persist: empty record")
	}
	if RecordKind(payload[0]) == RecInsert {
		return decodeInsert(payload)
	}
	rec := &Record{}
	if err := gob.NewDecoder(bytes.NewReader(payload[1:])).Decode(rec); err != nil {
		return nil, fmt.Errorf("persist: decoding record: %w", err)
	}
	if rec.Kind != RecordKind(payload[0]) {
		return nil, fmt.Errorf("persist: record kind byte %d disagrees with body kind %d", payload[0], rec.Kind)
	}
	switch rec.Kind {
	case RecCreateTable, RecBuildSynopsis, RecUpdateScaleFactor, RecRefreshSynopsis,
		RecAttachRelation, RecBuildJoinSynopsis:
		return rec, nil
	default:
		return nil, fmt.Errorf("persist: unknown record kind %d", rec.Kind)
	}
}

func encodeInsert(rec *Record) ([]byte, error) {
	buf := make([]byte, 1, 64)
	buf[0] = byte(RecInsert)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Table)))
	buf = append(buf, rec.Table...)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Row)))
	for _, v := range rec.Row {
		buf = append(buf, byte(v.K))
		switch v.K {
		case engine.KindNull:
		case engine.KindBool, engine.KindInt, engine.KindDate:
			buf = binary.AppendVarint(buf, v.I)
		case engine.KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
		case engine.KindString:
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		default:
			return nil, fmt.Errorf("persist: cannot encode value kind %v", v.K)
		}
	}
	return buf, nil
}

func decodeInsert(payload []byte) (*Record, error) {
	p := payload[1:]
	table, p, err := decodeString(p)
	if err != nil {
		return nil, fmt.Errorf("persist: insert record table: %w", err)
	}
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)) {
		return nil, fmt.Errorf("persist: insert record arity header corrupt")
	}
	p = p[sz:]
	row := make(engine.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(p) == 0 {
			return nil, fmt.Errorf("persist: insert record truncated at value %d", i)
		}
		k := engine.Kind(p[0])
		p = p[1:]
		var v engine.Value
		v.K = k
		switch k {
		case engine.KindNull:
		case engine.KindBool, engine.KindInt, engine.KindDate:
			iv, sz := binary.Varint(p)
			if sz <= 0 {
				return nil, fmt.Errorf("persist: insert record int value %d corrupt", i)
			}
			v.I = iv
			p = p[sz:]
		case engine.KindFloat:
			if len(p) < 8 {
				return nil, fmt.Errorf("persist: insert record float value %d truncated", i)
			}
			v.F = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		case engine.KindString:
			var s string
			s, p, err = decodeString(p)
			if err != nil {
				return nil, fmt.Errorf("persist: insert record string value %d: %w", i, err)
			}
			v.S = s
		default:
			return nil, fmt.Errorf("persist: insert record value %d has unknown kind %d", i, k)
		}
		row = append(row, v)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("persist: insert record has %d trailing bytes", len(p))
	}
	return &Record{Kind: RecInsert, Table: table, Row: row}, nil
}

func decodeString(p []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) {
		return "", nil, fmt.Errorf("length header corrupt")
	}
	return string(p[sz : sz+int(n)]), p[sz+int(n):], nil
}
