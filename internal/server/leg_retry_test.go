package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/tpcd"
)

// How often a coordinator sends one leg is the coordinator's retry
// policy alone: one loop in RemoteShard, one attempt per pkg/client
// call. These tests count the requests a shard actually receives.

// legShards serves the shards of a small partitioned lineitem table,
// each behind wrap(shard, h, requests to that shard's path so far), to a
// coordinator with default options (Retries 2).
func legShards(t *testing.T, wrap func(shard int, h http.Handler, n *atomic.Int32) http.Handler) (*congress.Coordinator, []*atomic.Int32) {
	t.Helper()
	rel, err := tpcd.Generate(tpcd.Params{TableSize: 600, NumGroups: 9, GroupSkew: 0.86, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	shards := shardWarehouses(t, rel, 2, congress.SynopsisSpec{Table: rel.Name, GroupBy: tpcd.GroupingAttrs, Space: 200, Seed: 5})
	counts := make([]*atomic.Int32, len(shards))
	urls := make([]string, len(shards))
	for i := range urls {
		counts[i] = new(atomic.Int32)
		hs := httptest.NewServer(wrap(i, New(Options{Warehouse: shards[i], Logger: quietLogger()}).Handler(), counts[i]))
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	co, err := congress.NewCoordinator(urls, congress.CoordinatorOptions{LegTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := co.WaitHealthy(ctx, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := co.Discover(ctx); err != nil {
		t.Fatal(err)
	}
	return co, counts
}

// answering makes shard (every shard when shard < 0) reply to requests
// for path with status — the first n of them when n >= 0, every one
// when n < 0 — and pass everything else through, counting the requests
// for path.
func answering(shard int, path string, status, n int) func(int, http.Handler, *atomic.Int32) http.Handler {
	return func(i int, h http.Handler, count *atomic.Int32) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != path {
				h.ServeHTTP(w, r)
				return
			}
			if k := count.Add(1); (shard < 0 || shard == i) && (n < 0 || int(k) <= n) {
				writeError(w, status, "injected", "injected failure")
				return
			}
			h.ServeHTTP(w, r)
		})
	}
}

func retriesOf(t *testing.T, co *congress.Coordinator, shard int) int {
	t.Helper()
	var sb strings.Builder
	co.RenderShardMetrics(&sb)
	return legCounter(t, sb.String(), fmt.Sprintf(`congress_distshard_fanout_retries_total{shard="%d"}`, shard))
}

// TestShedPartialsLegGetsRetriesPlusOneRequests: a shard that sheds
// every partials request receives Retries+1 of them per query, and the
// retry counter says Retries — not a client-side loop nested inside the
// leg's, which multiplied the two budgets.
func TestShedPartialsLegGetsRetriesPlusOneRequests(t *testing.T) {
	const retries, shed = 2, 1 // CoordinatorOptions default; the shedding shard
	co, counts := legShards(t, answering(shed, "/v1/estimate/partials", http.StatusTooManyRequests, -1))
	_, _, err := co.EstimateQueryOpts(context.Background(), "lineitem", []string{"l_returnflag"},
		congress.Sum, "l_quantity", 0.95, congress.ApproxOptions{})
	if !errors.Is(err, congress.ErrShardUnavailable) || !strings.Contains(err.Error(), fmt.Sprintf("shard %d", shed)) {
		t.Fatalf("err %v, want ErrShardUnavailable naming shard %d", err, shed)
	}
	if got := int(counts[shed].Load()); got != retries+1 {
		t.Errorf("shedding shard received %d partials requests, want %d", got, retries+1)
	}
	if got := retriesOf(t, co, shed); got != retries {
		t.Errorf("fanout_retries_total %d, want %d", got, retries)
	}
	if got := retriesOf(t, co, 1-shed); got != 0 {
		t.Errorf("healthy shard: fanout_retries_total %d, want 0", got)
	}
}

// TestForwardedInsertRetriesOnlyShedding: an insert the owning shard
// sheds twice is delivered on the third request; one it answers 503 is
// sent once and fails ErrShardUnavailable, because the shard may have
// applied it and a blind repeat could insert the rows twice.
func TestForwardedInsertRetriesOnlyShedding(t *testing.T) {
	row := lineitemRow(9_000_001, 0, 0, 7)
	for _, tc := range []struct {
		name     string
		status   int
		failures int // how many requests get status; -1 is all of them
		requests int
		inserted int
	}{
		{"shed twice", http.StatusTooManyRequests, 2, 3, 1},
		{"503", http.StatusServiceUnavailable, -1, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co, counts := legShards(t, answering(-1, "/v1/insert", tc.status, tc.failures))
			inserted, err := co.InsertRows(context.Background(), "lineitem", []congress.Row{row})
			if tc.inserted == 1 && err != nil {
				t.Fatalf("insert: %v", err)
			}
			if tc.inserted == 0 && !errors.Is(err, congress.ErrShardUnavailable) {
				t.Fatalf("insert err %v, want ErrShardUnavailable", err)
			}
			if inserted != tc.inserted {
				t.Errorf("inserted %d, want %d", inserted, tc.inserted)
			}
			total := 0
			for _, c := range counts {
				total += int(c.Load())
			}
			if total != tc.requests {
				t.Errorf("shards received %d insert requests, want %d", total, tc.requests)
			}
		})
	}
}
