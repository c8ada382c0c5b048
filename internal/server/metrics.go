package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxdb/congress/internal/metrics"
)

// serverMetrics aggregates the server-side counters and latency
// histograms exposed on /metrics next to the warehouse's congress_*
// telemetry. Metric names (all deterministic, sorted rendering):
//
//	server_in_flight                      requests currently executing
//	server_admission_queue_depth          requests waiting for a worker slot
//	server_requests_shed_total            requests rejected with 429
//	server_panics_recovered_total         handler panics turned into 500s
//	server_requests_total{route,code}     completed requests by route and status
//	server_request_seconds{route,...}     per-route latency histogram + quantiles
//	server_request_seconds_all{...}       all-routes latency histogram + quantiles
type serverMetrics struct {
	inFlight atomic.Int64
	shed     atomic.Int64
	panics   atomic.Int64

	all *metrics.Histogram
	// byRoute holds one histogram per route Server.instrument wraps,
	// added while New builds the mux and read-only once it serves, so
	// observe stays lock-free and no served route lacks a series.
	byRoute map[string]*metrics.Histogram
	routes  []string // byRoute's keys, sorted

	mu       sync.Mutex
	requests map[string]int64 // "route\x00code" -> count
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		all:      metrics.NewHistogram(),
		byRoute:  make(map[string]*metrics.Histogram),
		requests: make(map[string]int64),
	}
}

// addRoute gives a route its latency histogram; only New calls it,
// before the server handles a request.
func (m *serverMetrics) addRoute(route string) {
	if _, ok := m.byRoute[route]; ok {
		return
	}
	m.byRoute[route] = metrics.NewHistogram()
	m.routes = append(m.routes, route)
	sort.Strings(m.routes)
}

// observe records one completed request.
func (m *serverMetrics) observe(route string, code int, d time.Duration) {
	m.all.Observe(d)
	m.byRoute[route].Observe(d)
	m.mu.Lock()
	m.requests[route+"\x00"+fmt.Sprint(code)]++
	m.mu.Unlock()
}

// render writes the server_* exposition block, with every multi-valued
// family sorted by label so output is deterministic for a fixed state.
func (m *serverMetrics) render(sb *strings.Builder, queueDepth int64) {
	fmt.Fprintf(sb, "server_in_flight %d\n", m.inFlight.Load())
	fmt.Fprintf(sb, "server_admission_queue_depth %d\n", queueDepth)
	fmt.Fprintf(sb, "server_requests_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(sb, "server_panics_recovered_total %d\n", m.panics.Load())

	m.mu.Lock()
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, 0, len(keys))
	for _, k := range keys {
		route, code, _ := strings.Cut(k, "\x00")
		lines = append(lines, fmt.Sprintf("server_requests_total{code=%q,route=%q} %d\n", code, route, m.requests[k]))
	}
	m.mu.Unlock()
	for _, l := range lines {
		sb.WriteString(l)
	}

	m.all.Snapshot().Render(sb, "server_request_seconds_all")
	for _, r := range m.routes {
		if snap := m.byRoute[r].Snapshot(); snap.Count > 0 {
			snap.Render(sb, "server_request_seconds", "route", r)
		}
	}
}
