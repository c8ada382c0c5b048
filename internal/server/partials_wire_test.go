package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/pkg/client"
)

// The partials leg speaks two encodings, picked per request by Accept.
// These tests pin the mixed-version cases — each side new, the other
// old — to the same 1e-9 differential as the all-new cluster, and the
// rule that a damaged frame is a failed leg.

var wireGroupings = [][]string{{"l_returnflag"}, tpcd.GroupingAttrs}

func legCounter(t *testing.T, metrics, series string) int {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.Atoi(rest)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// TestPartialsWireNewCoordinatorOldShards: shards that ignore Accept (any
// congressd before the binary frame) answer JSON, the coordinator reads
// it, the answers still match the single warehouse — and /metrics says
// which encoding each shard's legs arrived in.
func TestPartialsWireNewCoordinatorOldShards(t *testing.T) {
	for _, tc := range []struct {
		name     string
		wrap     func(int, http.Handler) http.Handler
		encoding string
	}{
		{"new shards", nil, "binary"},
		{"old shards", func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				r.Header.Del("Accept")
				h.ServeHTTP(w, r)
			})
		}, "json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := newDistClusterBehind(t, 3, 3000, tc.wrap)
			ctx := context.Background()
			queries := 0
			for _, grouping := range wireGroupings {
				for _, agg := range []string{"sum", "count", "avg"} {
					want, err := cl.single.Estimate("lineitem", grouping, mustAgg(t, agg), "l_quantity", 0.95)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := cl.co.EstimateQueryOpts(ctx, "lineitem", grouping, mustAgg(t, agg), "l_quantity", 0.95, congress.ApproxOptions{})
					if err != nil {
						t.Fatalf("%v %s: %v", grouping, agg, err)
					}
					sameEstimates(t, fmt.Sprint(grouping, " ", agg), got, want)
					queries++
				}
			}
			metrics, err := cl.c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for shard := 0; shard < 3; shard++ {
				for _, enc := range []string{"json", "binary"} {
					labels := fmt.Sprintf(`{shard="%d",encoding=%q}`, shard, enc)
					replies := legCounter(t, metrics, "congress_distshard_leg_replies_total"+labels)
					nbytes := legCounter(t, metrics, "congress_distshard_leg_reply_bytes_total"+labels)
					if enc == tc.encoding && (replies != queries || nbytes <= 0) {
						t.Errorf("shard %d %s: %d replies, %d bytes, want %d replies", shard, enc, replies, nbytes, queries)
					}
					if enc != tc.encoding && (replies != 0 || nbytes != 0) {
						t.Errorf("shard %d %s: %d replies, %d bytes, want none", shard, enc, replies, nbytes)
					}
				}
			}
		})
	}
}

// TestPartialsWireOldCoordinatorNewShards: a caller that sends no Accept
// (an older coordinator, curl) gets today's JSON from a new shard, and
// merging those JSON legs reproduces the single warehouse.
func TestPartialsWireOldCoordinatorNewShards(t *testing.T) {
	cl := newDistCluster(t, 3, 3000)
	for _, grouping := range wireGroupings {
		body, err := json.Marshal(client.PartialsRequest{Table: "lineitem", GroupBy: grouping, Column: "l_quantity"})
		if err != nil {
			t.Fatal(err)
		}
		legs := make([][]estimate.GroupPartial, len(cl.shardSrvs))
		for i, hs := range cl.shardSrvs {
			resp, err := http.Post(hs.URL+"/v1/estimate/partials", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("shard %d answered %q to a request without Accept", i, ct)
			}
			var pr client.PartialsResponse
			err = json.NewDecoder(resp.Body).Decode(&pr)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			legs[i] = pr.Partials
		}
		for _, agg := range []string{"sum", "count", "avg"} {
			want, err := cl.single.Estimate("lineitem", grouping, mustAgg(t, agg), "l_quantity", 0.95)
			if err != nil {
				t.Fatal(err)
			}
			got, err := estimate.Finalize(estimate.MergePartials(legs...), mustAgg(t, agg), 0.95)
			if err != nil {
				t.Fatal(err)
			}
			sameEstimates(t, fmt.Sprint(grouping, " ", agg), got, want)
		}
	}
}

// TestPartialsWireCorruptFrameFailsTheLeg: a binary reply that arrives
// damaged — a flipped bit, a short body, a record count the body cannot
// hold (re-sealed, so only the parser can catch it) — is retried and
// then fails the query as 503 shard_unavailable naming the shard. It is
// never merged, and never answered from the other shards alone.
func TestPartialsWireCorruptFrameFailsTheLeg(t *testing.T) {
	damage := map[string]func(frame []byte) []byte{
		"bit flip":  func(f []byte) []byte { f[len(f)/2] ^= 0x04; return f },
		"truncated": func(f []byte) []byte { return f[:len(f)-len(f)/3] },
		"count overrun": func(f []byte) []byte {
			le, body := binary.LittleEndian, f[:len(f)-4]
			le.PutUint32(f[4:], le.Uint32(f[4:])+1)
			le.PutUint32(f[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
			return f
		},
	}
	for name, mangle := range damage {
		t.Run(name, func(t *testing.T) {
			const bad = 1
			cl := newDistClusterBehind(t, 3, 1500, func(shard int, h http.Handler) http.Handler {
				if shard != bad {
					return h
				}
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path != "/v1/estimate/partials" {
						h.ServeHTTP(w, r)
						return
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					if ct := rec.Header().Get("Content-Type"); ct != estimate.PartialsContentType {
						t.Errorf("shard answered %q to a coordinator", ct)
					}
					frame := mangle(rec.Body.Bytes())
					w.Header().Set("Content-Type", estimate.PartialsContentType)
					w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
					w.Write(frame)
				})
			})
			ctx := context.Background()
			res, err := cl.c.Query(ctx, client.QueryRequest{Estimate: &client.EstimateRequest{
				Table: "lineitem", GroupBy: []string{"l_returnflag"}, Agg: "sum", Column: "l_quantity", Confidence: 0.95,
			}})
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.Code != "shard_unavailable" {
				t.Fatalf("answer %+v, err %v; want 503 shard_unavailable", res, err)
			}
			if !strings.Contains(ae.Message, fmt.Sprintf("shard %d", bad)) {
				t.Errorf("error %q does not name shard %d", ae.Message, bad)
			}
			_, _, cerr := cl.co.EstimateQueryOpts(ctx, "lineitem", []string{"l_returnflag"}, congress.Sum, "l_quantity", 0.95, congress.ApproxOptions{})
			if !errors.Is(cerr, congress.ErrShardUnavailable) {
				t.Errorf("EstimateQueryOpts error %v, want ErrShardUnavailable", cerr)
			}
			metrics, err := cl.c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if legCounter(t, metrics, fmt.Sprintf(`congress_distshard_fanout_retries_total{shard="%d"}`, bad)) == 0 {
				t.Error("the damaged leg was never retried")
			}
			if n := legCounter(t, metrics, fmt.Sprintf(`congress_distshard_leg_replies_total{shard="%d",encoding="binary"}`, bad)); n != 0 {
				t.Errorf("%d damaged replies were counted as received", n)
			}
		})
	}
}
