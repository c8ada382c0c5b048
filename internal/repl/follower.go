package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxdb/congress/internal/persist"
)

// Target is the warehouse surface a follower replays into. Both methods
// must route through the same paths recovery uses, so replayed records
// feed synopsis maintainers and bump epochs exactly like local
// mutations (congress.Warehouse implements it via RestoreSnapshot /
// ApplyRecord).
type Target interface {
	RestoreSnapshot(st *persist.State) error
	ApplyRecord(rec *persist.Record) error
}

// FollowerOptions configures a follower.
type FollowerOptions struct {
	// Leader is the leader's base URL, e.g. "http://10.0.0.1:8642".
	Leader string
	// Dir is the follower's local data directory. Shipped snapshots and
	// segments are persisted here, so a restart resumes from local disk.
	Dir string
	// Target receives the replayed state and records.
	Target Target
	// ID identifies this follower to the leader (metrics labels).
	// Default "<hostname>-<pid>".
	ID string
	// WaitMS is the long-poll window per WAL request. Default 2000.
	WaitMS int
	// MinBackoff/MaxBackoff bound the reconnect backoff (exponential
	// with jitter). Defaults 100ms / 5s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// BootstrapTimeout bounds how long Start retries a transiently
	// unreachable leader before giving up. Default 30s.
	BootstrapTimeout time.Duration
	// HTTPClient defaults to a client without a global timeout
	// (per-request contexts bound each call).
	HTTPClient *http.Client
	// Logger defaults to slog.Default().
	Logger *slog.Logger
}

func (o *FollowerOptions) withDefaults() error {
	if o.Leader == "" || o.Dir == "" || o.Target == nil {
		return fmt.Errorf("repl: FollowerOptions needs Leader, Dir, and Target")
	}
	if _, err := url.Parse(o.Leader); err != nil {
		return fmt.Errorf("repl: malformed leader URL: %w", err)
	}
	o.Leader = strings.TrimRight(o.Leader, "/")
	if o.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "follower"
		}
		o.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.WaitMS <= 0 {
		o.WaitMS = 2000
	}
	if o.MinBackoff <= 0 {
		o.MinBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.BootstrapTimeout <= 0 {
		o.BootstrapTimeout = 30 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return nil
}

// terminalError marks failures a reconnect cannot heal: divergence, or
// a record the target refuses to apply. The follower surfaces them on
// Fatal() and stops; a process restart is the recovery path (Start
// re-seeds from the leader when the local directory no longer replays).
// Pruned leader history is NOT terminal: the follower re-bootstraps in
// place from the leader's newest snapshot (see rebootstrap), and only
// turns terminal when the leader has no snapshot to offer either.
type terminalError struct{ err error }

func (e terminalError) Error() string { return e.err.Error() }
func (e terminalError) Unwrap() error { return e.err }

func terminal(format string, args ...any) error {
	return terminalError{fmt.Errorf(format, args...)}
}

// IsTerminal reports whether a follower error means its local state can
// no longer converge with the leader by retrying.
func IsTerminal(err error) bool {
	_, ok := err.(terminalError)
	return ok
}

// Follower tails a leader: bootstrap (local disk first, else a shipped
// snapshot), then repeat — fetch a chunk of durable WAL bytes, verify
// every frame's checksum, append the verified bytes to the local
// segment file, apply each record to the target. The local directory
// always satisfies the persist invariant, so a restart recovers from it
// exactly like the leader recovers from its own.
type Follower struct {
	opts FollowerOptions
	hc   *http.Client
	log  *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	fatal  chan error
	once   sync.Once
	done   chan struct{}

	mu            sync.Mutex
	gen           uint64 // segment currently being shipped
	offset        int64  // verified local bytes of that segment (incl. header)
	segRecords    int64  // records applied from that segment
	leaderGen     uint64 // leader's current generation, from headers
	leaderSeq     int64  // leader's current-segment record count
	lagAtManifest int64  // manifest-derived lag when behind a generation
	appliedAtMf   int64  // recordsApplied at the manifest fetch
	haveManifest  bool
	caughtUp      bool
	lastCaughtUp  time.Time
	lastErr       string
	localFile     *os.File // current segment, open for append (lazy)

	reconnects       atomic.Int64
	segmentsShipped  atomic.Int64
	bytesShipped     atomic.Int64
	recordsApplied   atomic.Int64
	chunksRejected   atomic.Int64
	snapshotsFetched atomic.Int64
	rebootstraps     atomic.Int64
}

// NewFollower validates the options; Start performs the bootstrap.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		opts:   opts,
		hc:     opts.HTTPClient,
		log:    opts.Logger,
		ctx:    ctx,
		cancel: cancel,
		fatal:  make(chan error, 1),
		done:   make(chan struct{}),
	}, nil
}

// Fatal delivers the error that stopped the follower for good (at most
// one). Transient failures never appear here — they are retried.
func (f *Follower) Fatal() <-chan error { return f.fatal }

func (f *Follower) fail(err error) {
	f.once.Do(func() {
		f.mu.Lock()
		f.lastErr = err.Error()
		f.mu.Unlock()
		f.log.Error("replication stopped", slog.String("err", err.Error()))
		f.fatal <- err
	})
}

// Start bootstraps the target — from the local directory when it holds
// a valid snapshot and replayable segments, otherwise from a snapshot
// shipped by the leader — and launches the tail loop. It returns only
// after the target reflects a consistent cut of the leader's history.
// Damaged local files never stop a follower from starting: the leader
// holds everything they did, so they are discarded and re-shipped.
func (f *Follower) Start() error {
	if err := os.MkdirAll(f.opts.Dir, 0o755); err != nil {
		return err
	}
	resumed, err := f.bootstrapLocal()
	if err != nil {
		f.log.Warn("local replica state unusable; bootstrapping from the leader",
			slog.String("dir", f.opts.Dir), slog.String("err", err.Error()))
	}
	if !resumed {
		if err := f.bootstrapRemote(); err != nil {
			return err
		}
	}
	go f.run()
	return nil
}

// Close stops the tail loop and releases the local segment file. The
// target keeps serving its last replayed state.
func (f *Follower) Close() {
	f.cancel()
	<-f.done
	f.mu.Lock()
	if f.localFile != nil {
		f.localFile.Close()
		f.localFile = nil
	}
	f.mu.Unlock()
}

// bootstrapLocal resumes from the follower's own directory exactly as a
// leader restarts from its own — persist.Recover, then restore and
// replay — and tails from the end of what was replayed. Reports false
// when the directory holds no usable snapshot.
func (f *Follower) bootstrapLocal() (bool, error) {
	info, err := persist.Recover(f.opts.Dir)
	if err != nil || info.Snapshot == nil {
		return false, err
	}
	if err := f.opts.Target.RestoreSnapshot(info.Snapshot); err != nil {
		return false, fmt.Errorf("repl: restoring local snapshot %016x: %w", info.SnapshotGen, err)
	}
	for _, rec := range info.Records {
		if err := f.opts.Target.ApplyRecord(rec); err != nil {
			return false, fmt.Errorf("repl: replaying local segments: %w", err)
		}
	}
	f.recordsApplied.Add(int64(len(info.Records)))
	tail := info.Tail
	if info.TruncatedBytes > 0 {
		// The leader re-ships what the tear cut, and every segment after it.
		f.log.Warn("truncated torn local segment tail",
			slog.String("segment", fmt.Sprintf("%016x", tail.Gen)), slog.Int64("bytes", info.TruncatedBytes))
	}
	f.mu.Lock()
	f.gen, f.offset, f.segRecords = tail.Gen, tail.Size, tail.Records
	f.lastCaughtUp = time.Now()
	f.mu.Unlock()
	f.log.Info("resumed from local disk",
		slog.String("segment", fmt.Sprintf("%016x", tail.Gen)), slog.Int64("offset", tail.Size))
	return true, nil
}

// bootstrapRemote fetches the leader's newest snapshot, persists it
// locally, and restores it into the target. Transient fetch failures
// retry with backoff until BootstrapTimeout.
func (f *Follower) bootstrapRemote() error {
	deadline := time.Now().Add(f.opts.BootstrapTimeout)
	backoff := f.opts.MinBackoff
	for {
		err := f.tryBootstrapRemote()
		if err == nil {
			return nil
		}
		if IsTerminal(err) || time.Now().After(deadline) {
			return err
		}
		f.log.Warn("bootstrap attempt failed, retrying", slog.String("err", err.Error()))
		select {
		case <-f.ctx.Done():
			return f.ctx.Err()
		case <-time.After(jittered(backoff)):
		}
		backoff = nextBackoff(backoff, f.opts.MaxBackoff)
	}
}

func (f *Follower) tryBootstrapRemote() error {
	mf, err := f.fetchManifest()
	if err != nil {
		return err
	}
	if len(mf.Snapshots) == 0 {
		return fmt.Errorf("repl: leader has no snapshot to bootstrap from")
	}
	snapGen := mf.Snapshots[len(mf.Snapshots)-1]
	st, err := f.fetchSnapshot(snapGen)
	if err != nil {
		return err
	}
	if err := persist.Reseed(f.opts.Dir, snapGen); err != nil {
		return err
	}
	if err := f.opts.Target.RestoreSnapshot(st); err != nil {
		return terminal("repl: restoring shipped snapshot %016x: %w", snapGen, err)
	}
	f.snapshotsFetched.Add(1)
	f.mu.Lock()
	f.gen, f.offset, f.segRecords = snapGen, persist.SegmentHeaderSize, 0
	f.lastCaughtUp = time.Now()
	f.mu.Unlock()
	f.log.Info("bootstrapped from leader snapshot",
		slog.String("snapshot", fmt.Sprintf("%016x", snapGen)), slog.String("leader", f.opts.Leader))
	return nil
}

// rebootstrap re-seeds the target from the leader's newest snapshot
// after the leader pruned a generation this follower still needed.
// Rapid snapshot cascades (every WAL-logged DDL — AttachRelation,
// BuildJoinSynopsis — requests one) can retire an empty intermediate
// segment before an otherwise caught-up follower steps through it. A
// snapshot at generation S reflects every record in segments < S, and
// the follower only lands here at a generation at or below the pruned
// one, so restoring a newer snapshot is a consistent jump forward —
// the process-restart recovery path, performed in place. Terminal only
// when the leader has no snapshot newer than the follower's position.
func (f *Follower) rebootstrap(oldGen uint64) error {
	f.mu.Lock()
	if f.localFile != nil {
		f.localFile.Close()
		f.localFile = nil
	}
	f.caughtUp = false
	f.haveManifest = false
	f.mu.Unlock()

	mf, err := f.fetchManifest()
	if err != nil {
		return err
	}
	var snapGen uint64
	for _, s := range mf.Snapshots {
		if s > oldGen && s > snapGen {
			snapGen = s
		}
	}
	if snapGen == 0 {
		return terminal("repl: leader pruned history past %016x and offers no newer snapshot to re-bootstrap from", oldGen)
	}
	st, err := f.fetchSnapshot(snapGen)
	if err != nil {
		return err
	}
	if err := f.opts.Target.RestoreSnapshot(st); err != nil {
		return terminal("repl: restoring shipped snapshot %016x: %w", snapGen, err)
	}
	f.snapshotsFetched.Add(1)
	f.rebootstraps.Add(1)
	f.mu.Lock()
	f.gen, f.offset, f.segRecords = snapGen, persist.SegmentHeaderSize, 0
	f.mu.Unlock()
	f.noteManifest(mf, snapGen)
	persist.Prune(f.opts.Dir, 0)
	f.log.Warn("re-bootstrapped from leader snapshot after pruned generation",
		slog.String("pruned_after", fmt.Sprintf("%016x", oldGen)),
		slog.String("snapshot", fmt.Sprintf("%016x", snapGen)))
	return nil
}

// run is the tail loop: poll, classify failures, back off on transient
// ones, die on terminal ones.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.opts.MinBackoff
	for {
		select {
		case <-f.ctx.Done():
			return
		default:
		}
		err := f.poll()
		if err == nil {
			backoff = f.opts.MinBackoff
			continue
		}
		if f.ctx.Err() != nil {
			return
		}
		if IsTerminal(err) {
			f.fail(err)
			return
		}
		f.reconnects.Add(1)
		f.mu.Lock()
		f.lastErr = err.Error()
		f.mu.Unlock()
		f.log.Warn("replication poll failed, backing off",
			slog.String("err", err.Error()), slog.Duration("backoff", backoff))
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(jittered(backoff)):
		}
		backoff = nextBackoff(backoff, f.opts.MaxBackoff)
	}
}

// poll performs one WAL request/verify/persist/apply cycle.
func (f *Follower) poll() error {
	f.mu.Lock()
	gen, offset, segRecords := f.gen, f.offset, f.segRecords
	f.mu.Unlock()

	reqURL := fmt.Sprintf("%s/v1/repl/wal/%016x?from=%d&wait_ms=%d&applied=%d&id=%s",
		f.opts.Leader, gen, offset, f.opts.WaitMS, segRecords, url.QueryEscape(f.opts.ID))
	ctx, cancel := context.WithTimeout(f.ctx, time.Duration(f.opts.WaitMS)*time.Millisecond+15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, reqURL, nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return fmt.Errorf("repl: wal request: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		// The leader pruned this segment. Everything it held (and more)
		// is covered by a newer leader snapshot; jump to it.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return f.rebootstrap(gen)
	case http.StatusConflict:
		return terminal("repl: diverged from leader at segment %016x offset %d (leader lost history this follower holds)", gen, offset)
	case http.StatusBadRequest:
		return terminal("repl: leader rejected wal request for segment %016x offset %d", gen, offset)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("repl: leader returned %s for segment %016x", resp.Status, gen)
	}

	curGen, err := strconv.ParseUint(resp.Header.Get(HeaderCurrentGen), 16, 64)
	if err != nil {
		return fmt.Errorf("repl: malformed %s header", HeaderCurrentGen)
	}
	watermark, err := strconv.ParseInt(resp.Header.Get(HeaderWatermark), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: malformed %s header", HeaderWatermark)
	}
	leaderSeq, _ := strconv.ParseInt(resp.Header.Get(HeaderCurrentSeq), 10, 64)

	body, err := io.ReadAll(io.LimitReader(resp.Body, maxChunkBody))
	if err != nil {
		return fmt.Errorf("repl: reading chunk: %w", err)
	}

	if len(body) > 0 {
		var payloads [][]byte
		_, intact, _ := persist.ReadFrames(body, func(p []byte) error {
			payloads = append(payloads, p)
			return nil
		})
		if intact != len(body) {
			// A corrupt chunk (bit flip in transit or on the leader's
			// disk) is dropped whole before anything touches the local
			// WAL, then re-requested from the last verified offset.
			f.chunksRejected.Add(1)
			return fmt.Errorf("repl: rejected chunk for segment %016x at %d: %d of its %d bytes are intact frames",
				gen, offset, intact, len(body))
		}
		if err := f.persistChunk(gen, offset, body); err != nil {
			return err
		}
		for _, payload := range payloads {
			rec, derr := persist.DecodeRecord(payload)
			if derr != nil {
				return terminal("repl: decoding verified record in segment %016x: %w", gen, derr)
			}
			if aerr := f.opts.Target.ApplyRecord(rec); aerr != nil {
				return terminal("repl: applying record in segment %016x: %w", gen, aerr)
			}
		}
		f.bytesShipped.Add(int64(len(body)))
		f.recordsApplied.Add(int64(len(payloads)))
		offset += int64(len(body))
		segRecords += int64(len(payloads))
	}

	f.mu.Lock()
	f.offset, f.segRecords = offset, segRecords
	f.leaderGen, f.leaderSeq = curGen, leaderSeq
	f.lastErr = ""
	if gen == curGen {
		f.haveManifest = false
		f.caughtUp = offset >= watermark && segRecords >= leaderSeq
		if f.caughtUp {
			f.lastCaughtUp = time.Now()
		}
	} else {
		f.caughtUp = false
	}
	f.mu.Unlock()

	if curGen > gen && offset >= watermark {
		return f.rotate(gen)
	}
	if curGen > gen && !f.manifestFresh() {
		// Mid-segment behind a generation: refresh the manifest-derived
		// lag estimate (exact lag needs per-segment record counts).
		if mf, merr := f.fetchManifest(); merr == nil {
			f.noteManifest(mf, gen)
		}
	}
	return nil
}

// maxChunkBody bounds one chunk read; far above any leader MaxChunk yet
// small enough that a misbehaving peer cannot exhaust memory.
const maxChunkBody = 64 << 20

// persistChunk appends verified bytes to the local copy of segment gen,
// creating the file (with header) on first write, and fsyncs so the
// local directory never trails what the target has applied by more than
// one chunk.
func (f *Follower) persistChunk(gen uint64, offset int64, chunk []byte) error {
	f.mu.Lock()
	file := f.localFile
	f.mu.Unlock()
	if file == nil {
		path := persist.WALPath(f.opts.Dir, gen)
		var err error
		file, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if os.IsNotExist(err) && offset == persist.SegmentHeaderSize {
			file, err = persist.CreateSegmentFile(path)
		}
		if err != nil {
			return fmt.Errorf("repl: opening local segment %016x: %w", gen, err)
		}
		f.mu.Lock()
		f.localFile = file
		f.mu.Unlock()
	}
	if _, err := file.Write(chunk); err != nil {
		return terminal("repl: writing local segment %016x: %w", gen, err)
	}
	if err := file.Sync(); err != nil {
		return terminal("repl: syncing local segment %016x: %w", gen, err)
	}
	return nil
}

// rotate advances to the next segment once the previous one is fully
// shipped. Generations are contiguous (every rotation and restart
// allocates max+1), so a gap means the leader pruned the intervening
// segment — the follower re-bootstraps from a newer snapshot rather
// than walking it. Rotation is also the compaction point:
// the leader wrote a snapshot at the new generation, and fetching it
// lets the follower prune its own old segments (best-effort — the
// snapshot may not be finished yet, in which case the next rotation
// compacts).
func (f *Follower) rotate(oldGen uint64) error {
	mf, err := f.fetchManifest()
	if err != nil {
		return err
	}
	next := uint64(0)
	for _, s := range mf.Segments {
		if s.Gen > oldGen && (next == 0 || s.Gen < next) {
			next = s.Gen
		}
	}
	if next == 0 {
		if mf.CurrentGen > oldGen {
			next = mf.CurrentGen
		} else {
			return fmt.Errorf("repl: leader signaled rotation past %016x but the manifest shows no newer segment", oldGen)
		}
	}
	if next != oldGen+1 {
		// The segment between oldGen and next was pruned (it carried no
		// records the newest snapshot doesn't cover); jump to a snapshot
		// instead of walking the retired generation.
		return f.rebootstrap(oldGen)
	}
	f.mu.Lock()
	if f.localFile != nil {
		f.localFile.Close()
		f.localFile = nil
	}
	f.gen, f.offset, f.segRecords = next, persist.SegmentHeaderSize, 0
	f.mu.Unlock()
	f.segmentsShipped.Add(1)
	f.noteManifest(mf, next)
	f.compact(mf, next)
	return nil
}

// compact persists the leader's snapshot at the new generation locally
// (if it exists yet) and applies persist's retention rule, which only
// removes segments once a newer local snapshot covers them.
func (f *Follower) compact(mf *persist.Manifest, gen uint64) {
	if !slices.Contains(mf.Snapshots, gen) {
		return
	}
	if _, err := os.Stat(persist.SnapPath(f.opts.Dir, gen)); err == nil {
		return // already have it (an earlier compact raced)
	}
	if _, err := f.fetchSnapshot(gen); err != nil {
		f.log.Warn("compaction snapshot fetch failed; keeping local segments",
			slog.String("snapshot", fmt.Sprintf("%016x", gen)), slog.String("err", err.Error()))
		return
	}
	f.snapshotsFetched.Add(1)
	persist.Prune(f.opts.Dir, 0)
}

// fetchManifest GETs the leader's manifest.
func (f *Follower) fetchManifest() (*persist.Manifest, error) {
	ctx, cancel := context.WithTimeout(f.ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.Leader+"/v1/repl/manifest", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("repl: manifest request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("repl: manifest request returned %s", resp.Status)
	}
	mf := &persist.Manifest{}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(mf); err != nil {
		return nil, fmt.Errorf("repl: decoding manifest: %w", err)
	}
	return mf, nil
}

// fetchSnapshot downloads one snapshot and installs it locally through
// persist.InstallSnapshot, which trusts it only once it verifies,
// returning the decoded state.
func (f *Follower) fetchSnapshot(gen uint64) (*persist.State, error) {
	ctx, cancel := context.WithTimeout(f.ctx, 5*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/repl/snapshot/%016x", f.opts.Leader, gen), nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("repl: snapshot request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("repl: snapshot %016x not on leader", gen)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("repl: snapshot request returned %s", resp.Status)
	}
	st, err := persist.InstallSnapshot(f.opts.Dir, gen, resp.Body)
	if err != nil {
		return nil, fmt.Errorf("repl: shipped snapshot %016x: %w", gen, err)
	}
	return st, nil
}

// noteManifest records a manifest-derived lag baseline for the interval
// where the follower is a generation behind (exact header-based lag
// needs the leader's current segment only).
func (f *Follower) noteManifest(mf *persist.Manifest, gen uint64) {
	f.mu.Lock()
	f.lagAtManifest = mf.TotalRecords(gen) - f.segRecords
	f.appliedAtMf = f.recordsApplied.Load()
	f.haveManifest = true
	f.leaderGen = mf.CurrentGen
	f.leaderSeq = mf.CurrentRecords
	f.mu.Unlock()
}

func (f *Follower) manifestFresh() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.haveManifest
}

// lagLocked computes the current lag estimate. Caller holds f.mu.
func (f *Follower) lagLocked() int64 {
	var lag int64
	if f.gen == f.leaderGen {
		lag = f.leaderSeq - f.segRecords
	} else if f.haveManifest {
		lag = f.lagAtManifest - (f.recordsApplied.Load() - f.appliedAtMf)
	} else {
		lag = f.leaderSeq // at least the leader's whole current segment
	}
	if lag < 0 {
		lag = 0
	}
	return lag
}

// Status is the follower's /v1/repl/status payload.
type Status struct {
	Role            string  `json:"role"`
	Leader          string  `json:"leader"`
	ID              string  `json:"id"`
	Gen             uint64  `json:"gen"`
	Offset          int64   `json:"offset"`
	SegmentRecords  int64   `json:"segment_records"`
	LeaderGen       uint64  `json:"leader_gen"`
	LagRecords      int64   `json:"lag_records"`
	LagSeconds      float64 `json:"lag_seconds"`
	CaughtUp        bool    `json:"caught_up"`
	Reconnects      int64   `json:"reconnects"`
	SegmentsShipped int64   `json:"segments_shipped"`
	BytesShipped    int64   `json:"bytes_shipped"`
	RecordsApplied  int64   `json:"records_applied"`
	ChunksRejected  int64   `json:"chunks_rejected"`
	// Rebootstraps counts in-place snapshot re-seeds after the leader
	// pruned a generation the follower still needed.
	Rebootstraps int64  `json:"rebootstraps"`
	LastError    string `json:"last_error,omitempty"`
}

// Status reports the follower's replication state.
func (f *Follower) Status() Status {
	f.mu.Lock()
	st := Status{
		Role:           "follower",
		Leader:         f.opts.Leader,
		ID:             f.opts.ID,
		Gen:            f.gen,
		Offset:         f.offset,
		SegmentRecords: f.segRecords,
		LeaderGen:      f.leaderGen,
		LagRecords:     f.lagLocked(),
		CaughtUp:       f.caughtUp,
		LastError:      f.lastErr,
	}
	if !f.caughtUp && !f.lastCaughtUp.IsZero() {
		st.LagSeconds = time.Since(f.lastCaughtUp).Seconds()
	}
	f.mu.Unlock()
	st.Reconnects = f.reconnects.Load()
	st.SegmentsShipped = f.segmentsShipped.Load()
	st.BytesShipped = f.bytesShipped.Load()
	st.RecordsApplied = f.recordsApplied.Load()
	st.ChunksRejected = f.chunksRejected.Load()
	st.Rebootstraps = f.rebootstraps.Load()
	return st
}

// Leader returns the leader base URL (for write-redirect hints).
func (f *Follower) Leader() string { return f.opts.Leader }

// RenderMetrics appends the follower's repl_* exposition lines.
func (f *Follower) RenderMetrics(sb *strings.Builder) {
	st := f.Status()
	fmt.Fprintf(sb, "repl_role{role=%q} 1\n", "follower")
	fmt.Fprintf(sb, "repl_follower_lag_records %d\n", st.LagRecords)
	fmt.Fprintf(sb, "repl_follower_lag_seconds %.3f\n", st.LagSeconds)
	fmt.Fprintf(sb, "repl_segments_shipped_total %d\n", st.SegmentsShipped)
	fmt.Fprintf(sb, "repl_reconnects_total %d\n", st.Reconnects)
	fmt.Fprintf(sb, "repl_bytes_shipped_total %d\n", st.BytesShipped)
	fmt.Fprintf(sb, "repl_records_applied_total %d\n", st.RecordsApplied)
	fmt.Fprintf(sb, "repl_chunks_rejected_total %d\n", st.ChunksRejected)
	fmt.Fprintf(sb, "repl_rebootstraps_total %d\n", st.Rebootstraps)
}

// jittered adds up to 50% random jitter so a fleet of followers does
// not reconnect in lockstep.
func jittered(d time.Duration) time.Duration {
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

func nextBackoff(cur, max time.Duration) time.Duration {
	cur *= 2
	if cur > max {
		cur = max
	}
	return cur
}
