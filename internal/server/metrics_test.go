package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/repl"
)

// TestEveryRouteHasALatencySeries: after one request to each route a
// server registers — a durable leader, so the replication routes are
// mounted too — /metrics carries a server_request_seconds series for
// every one of them. The histogram set used to be a hand-kept list that
// had missed the partials route.
func TestEveryRouteHasALatencySeries(t *testing.T) {
	w := durableWarehouse(t, 2000, 20)
	leader := repl.NewLeader(w.PersistManager(), repl.LeaderOptions{Logger: quietLogger()})
	srv, c := testServer(t, Options{Warehouse: w, ReplLeader: leader})
	requests := []struct{ route, method, path, body string }{
		{"query", "POST", "/v1/query", `{"sql":"select l_returnflag, sum(l_quantity) from lineitem group by l_returnflag"}`},
		{"exact", "POST", "/v1/exact", `{"sql":"select count(*) from lineitem"}`},
		{"insert", "POST", "/v1/insert", `{"table":"lineitem","rows":[[1,0,0,"1994-06-15",7,1200]]}`},
		{"partials", "POST", "/v1/estimate/partials", `{"table":"lineitem","group_by":["l_returnflag"],"column":"l_quantity"}`},
		{"snapshot", "POST", "/v1/snapshot", `{}`},
		{"synopses", "GET", "/v1/synopses", ""},
		{"repl_status", "GET", "/v1/repl/status", ""},
		{"repl", "GET", "/v1/repl/manifest", ""},
		{"healthz", "GET", "/healthz", ""},
		{"metrics", "GET", "/metrics", ""},
	}
	hit := make(map[string]bool, len(requests))
	for _, r := range requests {
		req, err := http.NewRequest(r.method, c.BaseURL()+r.path, strings.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d", r.method, r.path, resp.StatusCode)
		}
		hit[r.route] = true
	}
	for route := range srv.met.byRoute {
		if !hit[route] {
			t.Errorf("route %q is served but this test sends it no request", route)
		}
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for route := range hit {
		if !strings.Contains(m, `server_request_seconds_count{route="`+route+`"} `) {
			t.Errorf("/metrics has no latency series for route %q", route)
		}
	}
}
