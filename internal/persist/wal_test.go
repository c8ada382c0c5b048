package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/approxdb/congress/internal/engine"
)

func walRoundtrip(t *testing.T, mode SyncMode) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal-0001")
	w, err := CreateWAL(path, mode, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		payload := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, payload)
		seq, err := w.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	n, truncated, err := ReadWAL(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 0 {
		t.Fatalf("clean log reported %d truncated bytes", truncated)
	}
	if n != len(want) {
		t.Fatalf("read %d records, wrote %d", n, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestWALRoundtripAllModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncInterval, SyncNone} {
		t.Run(mode.String(), func(t *testing.T) { walRoundtrip(t, mode) })
	}
}

func TestWALConcurrentAppendGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0001")
	w, err := CreateWAL(path, SyncAlways, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.WaitDurable(seq); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n, truncated, err := ReadWAL(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter || truncated != 0 {
		t.Fatalf("read %d records (%d truncated bytes), want %d clean", n, truncated, writers*perWriter)
	}
}

// writeTestWAL writes records and returns the path plus each record's
// framed byte range, so tests can corrupt precise offsets.
func writeTestWAL(t *testing.T, n int) (string, []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal-0001")
	w, err := CreateWAL(path, SyncNone, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{int64(len(walMagic))}
	off := int64(len(walMagic))
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("record-%03d-payload", i))
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
		off += 8 + int64(len(payload))
		offsets = append(offsets, off)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, offsets
}

func TestWALTornTailTruncated(t *testing.T) {
	path, offsets := writeTestWAL(t, 10)
	// Cut the file mid-way through the last frame: a crash mid-append.
	tear := offsets[9] + 3
	if err := os.Truncate(path, tear); err != nil {
		t.Fatal(err)
	}
	n, truncated, err := ReadWAL(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("recovered %d records, want 9", n)
	}
	if truncated != 3 {
		t.Fatalf("truncated %d bytes, want 3", truncated)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != offsets[9] {
		t.Fatalf("file size %d after truncation, want %d", fi.Size(), offsets[9])
	}
	// A second read sees a clean log.
	n, truncated, err = ReadWAL(path, func([]byte) error { return nil })
	if err != nil || n != 9 || truncated != 0 {
		t.Fatalf("re-read: n=%d truncated=%d err=%v, want 9 clean records", n, truncated, err)
	}
}

func TestWALBitFlipTruncatesFromFlip(t *testing.T) {
	path, offsets := writeTestWAL(t, 10)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit inside record 6: its checksum fails, and
	// everything from that frame on is discarded.
	raw[offsets[6]+8+2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	n, truncated, err := ReadWAL(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("recovered %d records, want 6 (up to the flipped frame)", n)
	}
	if want := int64(len(raw)) - offsets[6]; truncated != want {
		t.Fatalf("truncated %d bytes, want %d", truncated, want)
	}
}

func TestWALBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0001")
	if err := os.WriteFile(path, []byte("NOTAWAL!extra"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadWAL(path, func([]byte) error { return nil }); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWALAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-0001")
	w, err := CreateWAL(path, SyncAlways, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("late")); err == nil {
		t.Fatal("append to closed WAL succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestEncodeDecodeInsertRecord(t *testing.T) {
	rec := &Record{
		Kind:  RecInsert,
		Table: "sales",
		Row: engine.Row{
			engine.NewString("east"),
			engine.NewInt(-42),
			engine.NewFloat(3.25),
			engine.NewBool(true),
			engine.Null,
		},
	}
	payload, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != RecInsert || got.Table != "sales" || len(got.Row) != len(rec.Row) {
		t.Fatalf("decoded %+v", got)
	}
	for i, v := range rec.Row {
		if got.Row[i] != v {
			t.Errorf("value %d: got %+v want %+v", i, got.Row[i], v)
		}
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(RecInsert)},
		{byte(RecInsert), 0xff, 0xff},
		{byte(RecCreateTable), 'g', 'a', 'r', 'b', 'a', 'g', 'e'},
		{99, 1, 2, 3},
	}
	for i, payload := range cases {
		if _, err := DecodeRecord(payload); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
}

func TestEncodeDecodeDDLRecords(t *testing.T) {
	recs := []*Record{
		{Kind: RecCreateTable, Table: "t", Cols: []engine.Column{{Name: "x", Kind: engine.KindInt}}},
		{Kind: RecRefreshSynopsis, Table: "t"},
		{Kind: RecUpdateScaleFactor, Table: "t", Rewrite: 2, GroupKey: "east", SF: 1.5},
	}
	for _, rec := range recs {
		payload, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("%d: %v", rec.Kind, err)
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("%d: %v", rec.Kind, err)
		}
		if got.Kind != rec.Kind || got.Table != rec.Table || got.GroupKey != rec.GroupKey || got.SF != rec.SF {
			t.Fatalf("kind %d roundtrip: got %+v want %+v", rec.Kind, got, rec)
		}
	}
}

// frameSeeds are the fuzz seed corpus for FuzzReadFrames: a valid run of
// frames and the ways one goes bad on disk or on the wire. The records
// are inserts because their encoding is fixed; gob's type ids depend on
// what else the process encoded first, and resealed mutations of the
// kind byte reach the gob decoder anyway.
func frameSeeds(t testing.TB) map[string][]byte {
	var valid []byte
	var first int
	for i, rec := range []*Record{
		{Kind: RecInsert, Table: "t", Row: engine.Row{engine.NewInt(1), engine.NewString("east"), engine.NewFloat(2.5)}},
		{Kind: RecInsert, Table: "u", Row: engine.Row{engine.NewBool(true), engine.Null}},
		{Kind: RecInsert, Table: "u", Row: engine.Row{engine.NewInt(-7)}},
	} {
		payload, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		valid = appendFrame(valid, payload)
		if i == 0 {
			first = len(valid)
		}
	}
	flipped := bytes.Clone(valid)
	flipped[first+frameHeaderSize+3] ^= 0x10
	huge := bytes.Clone(valid[:first])
	binary.LittleEndian.PutUint32(huge, maxRecordBytes+1)
	return map[string][]byte{
		"valid":           valid,
		"empty":           {},
		"torn_header":     valid[:first+3],
		"torn_payload":    valid[:len(valid)-2],
		"bit_flip":        flipped,
		"length_over_max": huge,
	}
}

// resealFrames recomputes the checksum of every frame whose length fits
// the buffer, so that mutated payloads reach DecodeRecord.
func resealFrames(buf []byte) []byte {
	out := bytes.Clone(buf)
	for off := 0; len(out)-off >= frameHeaderSize; {
		n := uint64(binary.LittleEndian.Uint32(out[off:]))
		if n > uint64(len(out)-off-frameHeaderSize) {
			break
		}
		payload := out[off+frameHeaderSize : off+frameHeaderSize+int(n)]
		binary.LittleEndian.PutUint32(out[off+4:], crc32.Checksum(payload, castagnoli))
		off += frameHeaderSize + int(n)
	}
	return out
}

func TestReadFramesSeeds(t *testing.T) {
	seeds := frameSeeds(t)
	want := map[string]int{"valid": 3, "empty": 0, "torn_header": 1, "torn_payload": 2, "bit_flip": 1, "length_over_max": 0}
	for name, buf := range seeds {
		records, intact, err := ReadFrames(buf, nil)
		if err != nil || records != want[name] {
			t.Errorf("%s: %d records (err %v), want %d", name, records, err, want[name])
		}
		if name == "valid" && intact != len(buf) {
			t.Errorf("valid: %d of %d bytes intact", intact, len(buf))
		}
	}
	// fn's error ends the walk before its frame is counted.
	stop := errors.New("stop")
	records, intact, err := ReadFrames(seeds["valid"], func([]byte) error { return stop })
	if !errors.Is(err, stop) || records != 0 || intact != 0 {
		t.Fatalf("stopped walk: records=%d intact=%d err=%v", records, intact, err)
	}
}

// FuzzReadFrames: whatever a segment file or a shipped chunk holds,
// ReadFrames does not panic, never reports more intact bytes than it was
// given, and accepts only what appendFrame writes — framing the accepted
// payloads again reproduces the intact prefix byte for byte. Every
// accepted payload also goes through DecodeRecord, which may refuse it
// but must not panic. Mutated inputs almost never keep a valid checksum,
// so each is also tried resealed.
func FuzzReadFrames(f *testing.F) {
	check := func(t *testing.T, b []byte) {
		var reframed []byte
		records, intact, err := ReadFrames(b, func(payload []byte) error {
			reframed = appendFrame(reframed, payload)
			DecodeRecord(payload)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if intact < 0 || intact > len(b) || records > intact/frameHeaderSize {
			t.Fatalf("%d records, %d intact bytes out of %d", records, intact, len(b))
		}
		if !bytes.Equal(reframed, b[:intact]) {
			t.Fatalf("accepted frames re-frame differently:\n in %x\nout %x", b[:intact], reframed)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check(t, b)
		check(t, resealFrames(b))
	})
}

// TestReadFramesCorpusIsCurrent: the committed seed corpus is exactly
// frameSeeds as this package frames and encodes records today. A missing
// seed is written (commit it); a stale one fails, and deleting
// testdata/fuzz/FuzzReadFrames then rerunning regenerates the lot after
// a deliberate format change.
func TestReadFramesCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadFrames")
	for name, buf := range frameSeeds(t) {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", buf)
		got, err := os.ReadFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%s was missing; wrote it — commit it", path)
		case err != nil:
			t.Fatal(err)
		case string(got) != want:
			t.Errorf("%s is stale: this package no longer writes these frames", path)
		}
	}
}
