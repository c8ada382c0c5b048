package main

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxdb/congress/pkg/client"
)

// opTimeout bounds one request. A request that exceeds it counts as
// failed, like any other request the caller gave up on.
const opTimeout = 10 * time.Second

// sample is one completed op: when it started and ended relative to the
// pass start, and whether its reply passed the output check.
type sample struct {
	kind       string
	start, end time.Duration
	ok         bool
	shed       bool
	cache      string // X-Congress-Cache of a query reply
}

func (s sample) ms() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// loadClient is one closed-loop caller: one connection, one schedule,
// the next request sent only after the previous reply was checked. The
// callers modelled are BI tools and loaders that wait for each reply.
type loadClient struct {
	c    *client.Client
	done func()
	ops  []op
	next int // schedule position; wraps around
	chk  *checker
	// acked counts rows the server acknowledged, for the recovery check.
	acked *atomic.Int64
}

func (e *env) newLoadClient(ops []op) *loadClient {
	c, done := newClient(e.t.endpoint)
	return &loadClient{c: c, done: done, ops: ops, chk: e.chk, acked: &e.acked}
}

// do sends the client's next op and returns its sample. The latency
// clock stops when the reply is decoded, before the output check runs.
func (lc *loadClient) do(ctx context.Context, epoch time.Time) sample {
	o := &lc.ops[lc.next%len(lc.ops)]
	lc.next++
	return lc.send(ctx, epoch, o)
}

func (lc *loadClient) send(ctx context.Context, epoch time.Time, o *op) sample {
	rctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	s := sample{kind: o.Kind, start: time.Since(epoch)}
	var err error
	if o.Kind == kindIns {
		var resp *client.InsertResponse
		resp, err = lc.c.Insert(rctx, *o.Insert)
		s.end = time.Since(epoch)
		if err = errors.Join(err, lc.chk.checkInsert(o, resp, err)); err == nil {
			lc.acked.Add(int64(resp.Inserted))
		}
	} else {
		var resp *client.QueryResponse
		resp, err = lc.c.Query(rctx, *o.Query)
		s.end = time.Since(epoch)
		if resp != nil {
			s.cache = resp.Cache
		}
		err = errors.Join(err, lc.chk.checkQuery(o, resp, err))
	}
	s.ok = err == nil
	s.shed = client.IsOverloaded(err)
	return s
}

// runFor drives every client in a closed loop for d and returns the
// samples of each. A request in flight when d ends is completed and
// kept: dropping it would hide exactly the slow requests.
func runFor(ctx context.Context, clients []*loadClient, d time.Duration) [][]sample {
	out := make([][]sample, len(clients))
	epoch := time.Now()
	var wg sync.WaitGroup
	for i, lc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []sample
			for time.Since(epoch) < d && ctx.Err() == nil {
				got = append(got, lc.do(ctx, epoch))
			}
			out[i] = got
		}()
	}
	wg.Wait()
	return out
}

// kindStats summarises one op kind of a pass.
type kindStats struct {
	N       int     `json:"n"`
	P50MS   float64 `json:"p50_ms"`
	TailMS  float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"`
	MaxMS   float64 `json:"max_ms"`
}

// passStats is what one measured window yields.
type passStats struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Shed      int                  `json:"shed"`
	Kinds     map[string]kindStats `json:"kinds"`
	// OpsPerS is the median completed-op rate of rateWindows equal
	// windows; the *Spread fields are the quartile spread across those
	// windows of the rate and of the primary kind's p50 and tail.
	OpsPerS      float64 `json:"ops_per_s"`
	OpsSpread    float64 `json:"ops_per_s_spread"`
	P50Spread    float64 `json:"p50_ms_spread"`
	TailSpread   float64 `json:"tail_ms_spread"`
	CacheHitFrac float64 `json:"cache_hit_frac"`
}

// summarize folds the samples of one window of length d.
func summarize(perClient [][]sample, d time.Duration, wl workloadDef) passStats {
	ps := passStats{Kinds: map[string]kindStats{}}
	latencies := map[string][]float64{} // per kind, in ms
	winLen := d / rateWindows
	counts := make([]float64, rateWindows)
	primaryByWin := make([][]float64, rateWindows)
	hits, lookups := 0, 0
	for _, samples := range perClient {
		for _, s := range samples {
			ps.Attempted++
			switch {
			case s.shed:
				ps.Shed++
				ps.Failed++
			case !s.ok:
				ps.Failed++
			}
			if !s.ok {
				continue
			}
			latencies[s.kind] = append(latencies[s.kind], s.ms())
			switch s.cache {
			case "hit":
				hits++
				lookups++
			case "miss":
				lookups++
			}
			// An op counts for the window it completed in; one that ran
			// past the end of the pass counts for none.
			if w := int(s.end / winLen); w < rateWindows {
				counts[w]++
				if s.kind == wl.primary {
					primaryByWin[w] = append(primaryByWin[w], s.ms())
				}
			}
		}
	}
	for kind, lats := range latencies {
		sort.Float64s(lats)
		declared := 99.0
		if kind == wl.primary {
			declared = wl.tailPct
		}
		pct, tail := tailOf(lats, declared)
		ps.Kinds[kind] = kindStats{N: len(lats), P50MS: percentile(lats, 50), TailMS: tail, TailPct: pct, MaxMS: lats[len(lats)-1]}
	}
	rates := make([]float64, rateWindows)
	var p50s, tails []float64
	for w := range counts {
		rates[w] = counts[w] / winLen.Seconds()
		if lats := primaryByWin[w]; len(lats) > 0 {
			sort.Float64s(lats)
			p50s = append(p50s, percentile(lats, 50))
			tails = append(tails, percentile(lats, ps.Kinds[wl.primary].TailPct))
		}
	}
	ps.OpsPerS, ps.OpsSpread = median(rates), quartileSpread(rates)
	ps.P50Spread, ps.TailSpread = quartileSpread(p50s), quartileSpread(tails)
	if lookups > 0 {
		ps.CacheHitFrac = float64(hits) / float64(lookups)
	}
	return ps
}
