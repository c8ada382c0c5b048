// Package repl replicates a congressd data directory over HTTP: a
// Leader serves the persist layer's snapshots and WAL segments to
// followers, and a Follower tails a leader — bootstrap from the newest
// shipped snapshot, persist shipped segments locally, apply each record
// through the warehouse's normal mutation paths.
//
// The protocol leans entirely on the persist generation-sequence
// invariant: the snapshot of generation S contains every mutation in
// segments < S and none from segment S. A follower bootstrapped from
// snapshot S that replays segments S, S+1, ... each to their durable
// watermark therefore reconstructs exactly the leader's logged history,
// with no coordination beyond byte offsets.
package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxdb/congress/internal/persist"
)

// LeaderOptions configures the leader-side replication service.
type LeaderOptions struct {
	// MaxChunk caps one WAL response body. A single record larger than
	// the cap is still shipped whole — responses always end on a frame
	// boundary. Default 1 MiB.
	MaxChunk int64
	// PollInterval is how often a long-polling WAL request re-checks the
	// durable watermark. Default 20ms.
	PollInterval time.Duration
	// MaxWait caps the wait_ms a follower may request. Default 30s.
	MaxWait time.Duration
	// Logger defaults to slog.Default().
	Logger *slog.Logger
}

func (o *LeaderOptions) withDefaults() {
	if o.MaxChunk <= 0 {
		o.MaxChunk = 1 << 20
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 20 * time.Millisecond
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 30 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
}

// Response headers on WAL chunk responses. Every 200 carries all three,
// including empty long-poll timeouts, so followers track leader
// progress (and compute lag) even when no new bytes ship.
const (
	// HeaderCurrentGen is the leader's current WAL generation (hex).
	HeaderCurrentGen = "X-Repl-Current-Gen"
	// HeaderWatermark is the requested segment's durable watermark in
	// bytes (decimal).
	HeaderWatermark = "X-Repl-Watermark"
	// HeaderCurrentSeq is the record count of the leader's current
	// segment (decimal).
	HeaderCurrentSeq = "X-Repl-Current-Seq"
)

// followerView is the leader's last observation of one follower,
// keyed by the follower-supplied id (or remote host).
type followerView struct {
	Gen        uint64    `json:"gen"`
	Applied    int64     `json:"applied"`
	LagRecords int64     `json:"lag_records"`
	LastSeen   time.Time `json:"last_seen"`
}

// Leader serves a Manager's directory to followers. It is read-only
// with respect to the directory: all file writes stay in persist.
type Leader struct {
	mgr  *persist.Manager
	opts LeaderOptions
	log  *slog.Logger

	bytesShipped     atomic.Int64
	chunksShipped    atomic.Int64
	segmentsShipped  atomic.Int64
	snapshotsShipped atomic.Int64

	mu        sync.Mutex
	followers map[string]followerView
}

// NewLeader wraps a persist manager with the replication service.
func NewLeader(mgr *persist.Manager, opts LeaderOptions) *Leader {
	opts.withDefaults()
	return &Leader{mgr: mgr, opts: opts, log: opts.Logger, followers: make(map[string]followerView)}
}

// HandleManifest serves GET /v1/repl/manifest.
func (l *Leader) HandleManifest(w http.ResponseWriter, r *http.Request) {
	mf, err := l.mgr.Manifest()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(mf)
}

// HandleSnapshot serves GET /v1/repl/snapshot/{gen}: the raw snapshot
// file (already self-checksummed — the follower verifies it in
// persist.InstallSnapshot before restoring).
func (l *Leader) HandleSnapshot(w http.ResponseWriter, r *http.Request) {
	gen, ok := parseGenParam(w, r)
	if !ok {
		return
	}
	f, err := os.Open(persist.SnapPath(l.mgr.Dir(), gen))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			httpError(w, http.StatusNotFound, "snapshot_gone", fmt.Sprintf("snapshot %016x does not exist (pruned or never written)", gen))
		} else {
			httpError(w, http.StatusInternalServerError, "internal", err.Error())
		}
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(st.Size(), 10))
	if _, err := io.Copy(w, f); err == nil {
		l.snapshotsShipped.Add(1)
	}
}

// HandleWAL serves GET /v1/repl/wal/{gen}?from=offset&wait_ms=N. The
// response body is zero or more whole WAL frames starting at byte
// offset from; when the watermark is already at from on the live
// segment, the handler long-polls up to wait_ms for new durable bytes.
// An empty 200 means "no new bytes yet" (or, when the headers show a
// newer current generation and from has reached the watermark, "this
// segment is complete — rotate").
//
// Error statuses are part of the protocol: 404 means the segment was
// pruned (the follower's history no longer exists here — re-bootstrap),
// 409 means the follower is ahead of this leader's history (divergence,
// e.g. the leader lost acknowledged-but-unsynced records in a machine
// crash) — both are terminal for the follower.
func (l *Leader) HandleWAL(w http.ResponseWriter, r *http.Request) {
	gen, ok := parseGenParam(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil || from < persist.SegmentHeaderSize {
		httpError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("from must be an offset >= %d (the segment header)", persist.SegmentHeaderSize))
		return
	}
	wait := time.Duration(0)
	if ms, err := strconv.ParseInt(q.Get("wait_ms"), 10, 64); err == nil && ms > 0 {
		wait = time.Duration(ms) * time.Millisecond
		if wait > l.opts.MaxWait {
			wait = l.opts.MaxWait
		}
	}
	deadline := time.Now().Add(wait)

	var watermark, leaderSeq int64
	var current bool
	var curGen uint64
	for {
		var serr error
		watermark, current, curGen, serr = l.mgr.SegmentStatus(gen)
		if serr != nil {
			if errors.Is(serr, os.ErrNotExist) {
				httpError(w, http.StatusNotFound, "segment_gone",
					fmt.Sprintf("segment %016x does not exist (pruned); re-bootstrap from a snapshot", gen))
			} else {
				httpError(w, http.StatusConflict, "diverged", serr.Error())
			}
			return
		}
		if from > watermark {
			httpError(w, http.StatusConflict, "diverged",
				fmt.Sprintf("offset %d is beyond segment %016x's watermark %d; the follower holds history this leader does not", from, gen, watermark))
			return
		}
		if from < watermark || !current || time.Now().After(deadline) {
			break
		}
		// Live segment, caught up, time left: long-poll for new bytes.
		select {
		case <-r.Context().Done():
			return
		case <-time.After(l.opts.PollInterval):
		}
	}
	leaderSeq = l.mgr.Stats().RecordSeq

	var chunk []byte
	if from < watermark {
		chunk, err = l.readFrames(gen, from, watermark)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
	}
	l.observeFollower(r, gen, curGen, leaderSeq)
	w.Header().Set(HeaderCurrentGen, fmt.Sprintf("%016x", curGen))
	w.Header().Set(HeaderWatermark, strconv.FormatInt(watermark, 10))
	w.Header().Set(HeaderCurrentSeq, strconv.FormatInt(leaderSeq, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(chunk)))
	if _, err := w.Write(chunk); err != nil {
		return
	}
	if len(chunk) > 0 {
		l.bytesShipped.Add(int64(len(chunk)))
		l.chunksShipped.Add(1)
		if !current && from+int64(len(chunk)) >= watermark {
			l.segmentsShipped.Add(1)
		}
	}
}

// readFrames reads WAL bytes [from, watermark) capped near MaxChunk but
// always ending on a frame boundary, as persist.ReadFrames finds it.
// Frames below the watermark are complete by construction, so a cut
// holding no whole frame means the first is longer than the cap: the cap
// doubles until it fits, and a record larger than MaxChunk ships whole
// rather than deadlocking the follower on a chunk that can never hold
// it. No chunk outgrows what a follower reads (maxChunkBody).
func (l *Leader) readFrames(gen uint64, from, watermark int64) ([]byte, error) {
	f, err := os.Open(persist.WALPath(l.mgr.Dir(), gen))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	limit := min(watermark-from, maxChunkBody)
	for n := min(l.opts.MaxChunk, limit); ; n = min(2*n, limit) {
		buf := make([]byte, n)
		if _, err := io.ReadFull(io.NewSectionReader(f, from, n), buf); err != nil {
			return nil, fmt.Errorf("repl: reading segment %016x at %d: %w", gen, from, err)
		}
		if _, end, _ := persist.ReadFrames(buf, nil); end > 0 {
			return buf[:end], nil
		}
		if n == limit {
			return nil, fmt.Errorf("repl: segment %016x has no intact frame within %d bytes of %d", gen, n, from)
		}
	}
}

// observeFollower records one follower's reported progress and its lag
// against the leader's own history, for /metrics and status.
func (l *Leader) observeFollower(r *http.Request, gen, curGen uint64, leaderSeq int64) {
	id := r.URL.Query().Get("id")
	if id == "" {
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			id = host
		} else {
			id = r.RemoteAddr
		}
	}
	applied, _ := strconv.ParseInt(r.URL.Query().Get("applied"), 10, 64)
	lag := int64(0)
	if gen == curGen {
		lag = leaderSeq - applied
	} else if mf, err := l.mgr.Manifest(); err == nil {
		lag = mf.TotalRecords(gen) - applied
	}
	if lag < 0 {
		lag = 0
	}
	l.mu.Lock()
	l.followers[id] = followerView{Gen: gen, Applied: applied, LagRecords: lag, LastSeen: time.Now()}
	// Drop followers that have not polled for a while so metrics do not
	// accumulate departed replicas forever.
	for k, v := range l.followers {
		if time.Since(v.LastSeen) > 5*time.Minute {
			delete(l.followers, k)
		}
	}
	l.mu.Unlock()
}

// LeaderStatus is the leader's /v1/repl/status payload.
type LeaderStatus struct {
	Role             string                  `json:"role"`
	Gen              uint64                  `json:"gen"`
	Watermark        int64                   `json:"watermark"`
	RecordSeq        int64                   `json:"record_seq"`
	BytesShipped     int64                   `json:"bytes_shipped"`
	ChunksShipped    int64                   `json:"chunks_shipped"`
	SegmentsShipped  int64                   `json:"segments_shipped"`
	SnapshotsShipped int64                   `json:"snapshots_shipped"`
	Followers        map[string]followerView `json:"followers,omitempty"`
}

// Status reports the leader's replication state.
func (l *Leader) Status() LeaderStatus {
	st := l.mgr.Stats()
	l.mu.Lock()
	followers := make(map[string]followerView, len(l.followers))
	for k, v := range l.followers {
		followers[k] = v
	}
	l.mu.Unlock()
	return LeaderStatus{
		Role:             "leader",
		Gen:              st.Generation,
		Watermark:        st.DurableOffset,
		RecordSeq:        st.RecordSeq,
		BytesShipped:     l.bytesShipped.Load(),
		ChunksShipped:    l.chunksShipped.Load(),
		SegmentsShipped:  l.segmentsShipped.Load(),
		SnapshotsShipped: l.snapshotsShipped.Load(),
		Followers:        followers,
	}
}

// RenderMetrics appends the leader's repl_* exposition lines.
func (l *Leader) RenderMetrics(sb *strings.Builder) {
	fmt.Fprintf(sb, "repl_role{role=%q} 1\n", "leader")
	fmt.Fprintf(sb, "repl_bytes_shipped_total %d\n", l.bytesShipped.Load())
	fmt.Fprintf(sb, "repl_chunks_shipped_total %d\n", l.chunksShipped.Load())
	fmt.Fprintf(sb, "repl_segments_shipped_total %d\n", l.segmentsShipped.Load())
	fmt.Fprintf(sb, "repl_snapshots_shipped_total %d\n", l.snapshotsShipped.Load())
	l.mu.Lock()
	ids := make([]string, 0, len(l.followers))
	for id := range l.followers {
		ids = append(ids, id)
	}
	views := make(map[string]followerView, len(l.followers))
	for k, v := range l.followers {
		views[k] = v
	}
	l.mu.Unlock()
	sortStrings(ids)
	for _, id := range ids {
		fmt.Fprintf(sb, "repl_follower_lag_records{follower=%q} %d\n", id, views[id].LagRecords)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// parseGenParam extracts the {gen} path value (hex), writing a 400 on
// malformed input.
func parseGenParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	gen, err := strconv.ParseUint(r.PathValue("gen"), 16, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_request", "malformed generation (want hex)")
		return 0, false
	}
	return gen, true
}

// httpError writes the service's JSON error shape (matching
// client.ErrorBody without importing it).
func httpError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}
