package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"github.com/approxdb/congress/internal/metrics"
)

// WAL segment layout: an 8-byte magic "CGRWAL01" followed by records
// framed as
//
//	4 bytes  payload length (little endian)
//	4 bytes  CRC32C of the payload
//	N bytes  payload
//
// appendFrame is the one writer of that layout and ReadFrames its one
// reader: recovery, ScanWAL and both ends of replication walk frames
// through it. Appends issue one write(2) per record, so after a process
// crash the OS page cache holds every acknowledged record; fsync policy
// only changes exposure to machine crashes. Recovery truncates the
// segment at the first frame whose header is short or whose checksum
// fails — the torn tail of an append cut off mid-write.

const (
	walMagic        = "CGRWAL01"
	frameHeaderSize = 8
	// maxRecordBytes bounds one record; a longer length header is
	// treated as corruption rather than an allocation request.
	maxRecordBytes = 1 << 30
)

// SegmentHeaderSize is the byte length of the magic header every WAL
// segment starts with; it is the smallest valid replication offset.
const SegmentHeaderSize = int64(len(walMagic))

// CreateSegmentFile creates an empty WAL segment file at path (which
// must not exist) containing just the magic header, open for appends.
// CreateWAL starts every segment with it, and replication followers use
// it to persist shipped segments without a WAL's sync machinery — the
// caller owns framing and fsync policy.
func CreateSegmentFile(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// SyncMode selects the WAL durability policy.
type SyncMode int

// Durability policies for the -fsync flag.
const (
	// SyncAlways fsyncs before acknowledging every append, batching
	// concurrent appenders into one fsync (group commit).
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs on a timer (default 50ms); a machine crash
	// can lose up to one interval of acknowledged appends.
	SyncInterval
	// SyncNone never fsyncs outside Close; acknowledged appends survive
	// process crashes (they reached the OS) but not machine crashes.
	SyncNone
)

// ParseSyncMode resolves a -fsync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("persist: unknown fsync mode %q (want always, interval, or none)", s)
	}
}

// String returns the flag spelling of the mode.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// WAL is one append-only log segment.
type WAL struct {
	mode     SyncMode
	interval time.Duration
	tel      *metrics.Telemetry

	mu        sync.Mutex
	f         *os.File
	scratch   []byte
	seq       uint64 // appends written so far
	syncedSeq uint64 // appends known durable
	size      int64  // bytes written so far (magic header included)
	syncedLen int64  // bytes known durable; always a frame boundary
	err       error  // first write/sync error; sticky
	closed    bool   // no further appends; Close has begun
	closeDone bool   // Close's final fsync finished (watermarks final)

	syncReq *sync.Cond // signals the syncer that seq advanced
	syncAck *sync.Cond // broadcast when syncedSeq advances

	wg sync.WaitGroup
}

// CreateWAL creates a new segment at path (which must not exist) and
// starts the background syncer its mode needs. interval applies to
// SyncInterval (0 means 50ms).
func CreateWAL(path string, mode SyncMode, interval time.Duration, tel *metrics.Telemetry) (*WAL, error) {
	f, err := CreateSegmentFile(path)
	if err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	w := &WAL{mode: mode, interval: interval, tel: tel, f: f,
		size: int64(len(walMagic)), syncedLen: int64(len(walMagic))}
	w.syncReq = sync.NewCond(&w.mu)
	w.syncAck = sync.NewCond(&w.mu)
	switch mode {
	case SyncAlways:
		w.wg.Add(1)
		go w.groupCommitLoop()
	case SyncInterval:
		w.wg.Add(1)
		go w.intervalLoop()
	}
	return w, nil
}

// Append frames and writes one record, returning its sequence number
// for WaitDurable. The write reaches the OS before Append returns;
// durability depends on the sync mode.
func (w *WAL) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("persist: record of %d bytes exceeds limit", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("persist: append to closed WAL")
	}
	if w.err != nil {
		return 0, w.err
	}
	w.scratch = appendFrame(w.scratch[:0], payload)
	if _, err := w.f.Write(w.scratch); err != nil {
		w.err = fmt.Errorf("persist: WAL append: %w", err)
		w.syncAck.Broadcast()
		return 0, w.err
	}
	w.seq++
	w.size += int64(len(w.scratch))
	w.tel.WALAppend(int64(len(w.scratch)))
	if w.mode == SyncAlways {
		w.syncReq.Signal()
	}
	return w.seq, nil
}

// Seq returns the number of records appended to this segment so far.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Size returns the segment's byte length including the magic header —
// always a frame boundary, because Append writes whole frames under the
// mutex before advancing it.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Watermark returns the replication-safe byte offset of this segment:
// the durable (fsynced) length under SyncAlways and SyncInterval, or the
// appended length under SyncNone (which never fsyncs, so "acknowledged"
// is the only watermark there is — shipped records then share the mode's
// machine-crash loss window with the leader's own acknowledgements).
// The watermark is always a frame boundary.
func (w *WAL) Watermark() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.mode == SyncNone {
		return w.size
	}
	return w.syncedLen
}

// WaitDurable blocks until the record with the given sequence number is
// durable under the WAL's sync mode. For SyncInterval and SyncNone it
// returns immediately — the caller accepted the mode's loss window.
//
// A concurrent Close (a snapshot rotation retiring this segment) is not
// a failure: Close's final fsync makes every append durable, so waiters
// block until that fsync lands (closeDone) rather than bailing the
// moment closing begins.
func (w *WAL) WaitDurable(seq uint64) error {
	if w.mode != SyncAlways {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncedSeq < seq && w.err == nil && !w.closeDone {
		w.syncAck.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.syncedSeq < seq {
		return fmt.Errorf("persist: WAL closed before record %d became durable", seq)
	}
	return nil
}

// groupCommitLoop batches fsyncs for SyncAlways: every wakeup makes all
// appends so far durable with one fsync, however many appenders are
// waiting.
func (w *WAL) groupCommitLoop() {
	defer w.wg.Done()
	w.mu.Lock()
	for {
		for w.seq == w.syncedSeq && !w.closed && w.err == nil {
			w.syncReq.Wait()
		}
		if w.closed || w.err != nil {
			w.mu.Unlock()
			return
		}
		target := w.seq
		targetLen := w.size
		w.mu.Unlock()
		err := w.f.Sync()
		w.tel.Fsync()
		w.mu.Lock()
		if err != nil && w.err == nil {
			w.err = fmt.Errorf("persist: WAL fsync: %w", err)
		}
		if err == nil {
			if w.syncedSeq < target {
				w.syncedSeq = target
			}
			if w.syncedLen < targetLen {
				w.syncedLen = targetLen
			}
		}
		w.syncAck.Broadcast()
	}
}

// intervalLoop fsyncs on a timer for SyncInterval.
func (w *WAL) intervalLoop() {
	defer w.wg.Done()
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for range ticker.C {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return
		}
		dirty := w.seq > w.syncedSeq
		target := w.seq
		targetLen := w.size
		w.mu.Unlock()
		if !dirty {
			continue
		}
		if err := w.f.Sync(); err != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = fmt.Errorf("persist: WAL fsync: %w", err)
			}
			w.mu.Unlock()
			return
		}
		w.tel.Fsync()
		w.mu.Lock()
		if w.syncedSeq < target {
			w.syncedSeq = target
		}
		if w.syncedLen < targetLen {
			w.syncedLen = targetLen
		}
		w.mu.Unlock()
	}
}

// Sync makes everything appended so far durable now, regardless of
// mode. On a closed WAL it returns nil: Close already fsynced every
// append as part of closing the segment.
func (w *WAL) Sync() error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	target := w.seq
	targetLen := w.size
	f := w.f
	w.mu.Unlock()
	if err := f.Sync(); err != nil {
		return err
	}
	w.tel.Fsync()
	w.mu.Lock()
	if w.syncedSeq < target {
		w.syncedSeq = target
	}
	if w.syncedLen < targetLen {
		w.syncedLen = targetLen
	}
	w.syncAck.Broadcast()
	w.mu.Unlock()
	return nil
}

// Close flushes, fsyncs, and closes the segment. Safe to call once.
// The final fsync makes every append durable before committers waiting
// in WaitDurable are released, so a record that raced a snapshot
// rotation is still acknowledged correctly.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.err
	w.syncReq.Broadcast()
	w.mu.Unlock()
	w.wg.Wait()
	serr := w.f.Sync()
	w.mu.Lock()
	if serr != nil && err == nil {
		err = serr
	} else if serr == nil {
		w.tel.Fsync()
		w.syncedLen = w.size
		w.syncedSeq = w.seq
	}
	w.closeDone = true
	w.syncAck.Broadcast()
	w.mu.Unlock()
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// appendFrame appends payload to dst as one WAL frame.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// ReadFrames walks the WAL frames at the start of buf, calling fn (when
// non-nil) with each intact payload in order; payloads alias buf. It
// stops at the first frame that is cut short, claims more than
// maxRecordBytes, or fails its checksum, and returns how many frames it
// accepted and the byte length of that intact prefix. An error from fn
// ends the walk before its frame is counted.
func ReadFrames(buf []byte, fn func(payload []byte) error) (records, intact int, err error) {
	for len(buf)-intact >= frameHeaderSize {
		n := binary.LittleEndian.Uint32(buf[intact:])
		if n > maxRecordBytes || int(n) > len(buf)-intact-frameHeaderSize {
			break
		}
		payload := buf[intact+frameHeaderSize : intact+frameHeaderSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[intact+4:]) {
			break
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return records, intact, err
			}
		}
		records++
		intact += frameHeaderSize + int(n)
	}
	return records, intact, nil
}

// readSegment reads a whole segment file and checks its magic header.
func readSegment(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(walMagic) || string(raw[:len(walMagic)]) != walMagic {
		return nil, fmt.Errorf("persist: %s is not a WAL segment", path)
	}
	return raw, nil
}

// ScanWAL walks a segment's frames without decoding or mutating it,
// returning the number of intact records and the byte offset of the last
// intact frame boundary (the segment's replication-safe length). Unlike
// ReadWAL it never truncates: a torn tail is simply excluded from the
// reported size. Replication uses it to describe closed segments.
func ScanWAL(path string) (records int64, size int64, err error) {
	raw, err := readSegment(path)
	if err != nil {
		return 0, 0, err
	}
	n, intact, _ := ReadFrames(raw[len(walMagic):], nil)
	return int64(n), SegmentHeaderSize + int64(intact), nil
}

// ReadWAL scans a segment, calling fn for each intact record payload in
// order. On encountering a torn tail — a truncated frame or a checksum
// mismatch — it truncates the file at the last intact frame boundary
// and reports how many bytes were cut; this is the normal outcome of a
// crash mid-append, not an error. fn's payload slice is only valid for
// the duration of the call.
func ReadWAL(path string, fn func(payload []byte) error) (records int, truncated int64, err error) {
	seg, truncated, err := replayWAL(path, fn)
	return int(seg.Records), truncated, err
}

// replayWAL is ReadWAL reporting the segment's intact length and record
// count (Gen is left for the caller).
func replayWAL(path string, fn func(payload []byte) error) (seg SegmentInfo, truncated int64, err error) {
	raw, err := readSegment(path)
	if err != nil {
		return seg, 0, err
	}
	records, intact, err := ReadFrames(raw[len(walMagic):], fn)
	seg = SegmentInfo{Size: SegmentHeaderSize + int64(intact), Records: int64(records)}
	if err != nil || seg.Size == int64(len(raw)) {
		return seg, 0, err
	}
	cut := int64(len(raw)) - seg.Size
	if terr := os.Truncate(path, seg.Size); terr != nil {
		return seg, cut, fmt.Errorf("persist: truncating torn WAL tail of %s: %w", path, terr)
	}
	return seg, cut, nil
}
