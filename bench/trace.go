package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// bench/. Spans of one op share Op; Parent is the span of the next
// shallower rung, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Kind   string `json:"kind"`  // see variant
	Name   string `json:"name"`  // the call timed
	Layer  string `json:"layer"` // the module the span's self time belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Parallel marks a span whose same-named siblings run side by side
	// in the call above them (the legs of a fan-out).
	Parallel bool `json:"parallel,omitempty"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory until the pass ends. The traced pass
// runs one client, so it needs no lock.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (tr *tracer) begin(parent, op int, kind, name, layer string) int {
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: op, Kind: kind, Name: name, Layer: layer, Start: int64(time.Since(tr.epoch))})
	return id
}

func (tr *tracer) end(id int) { tr.spans[id].End = int64(time.Since(tr.epoch)) }

// relabel sets a span's kind once the call has told which path it took.
func (tr *tracer) relabel(id int, kind string) { tr.spans[id].Kind = kind }

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stageRow is one line of a kind's stage table.
type stageRow struct {
	Kind     string  `json:"kind"`
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Depth    int     `json:"depth"`
	N        int     `json:"n"`
	MedianUS float64 `json:"median_us"`
	// SelfUS is the median over spans of the span's duration minus the
	// part its child spans cover: the time the layer itself adds.
	SelfUS float64 `json:"self_us"`
}

// selfTimes returns, per span, its duration minus what its children
// cover. Children sum, except that children marked Parallel and sharing
// a name cover only as much as the slowest of them: the bench times a
// fan-out's legs one after another, the call above it runs them side by
// side.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	slowest := map[[2]any]float64{} // (parent id, child name) -> slowest parallel child
	for _, s := range spans {
		self[s.ID] += s.us()
		if s.Parent < 0 {
			continue
		}
		if !s.Parallel {
			self[s.Parent] -= s.us()
			continue
		}
		k := [2]any{s.Parent, s.Name}
		if us := s.us(); us > slowest[k] {
			self[s.Parent] -= us - slowest[k]
			slowest[k] = us
		}
	}
	return self
}

// stageTable folds spans into per-kind stage rows, one per (kind, name),
// ordered by depth. Self times are taken per op and then summarised, so
// that an op is only ever compared with itself: a kind's ops are not
// all the same size, and medians of different rungs of a mixed
// population need not belong to the same op.
func stageTable(spans []span) []stageRow {
	type key struct{ kind, name string }
	type group struct {
		durs, selfs []float64
		layer       string
		depth       int
	}
	self := selfTimes(spans)
	groups := map[key]*group{}
	for _, s := range spans {
		k := key{s.Kind, s.Name}
		g := groups[k]
		if g == nil {
			g = &group{layer: s.Layer}
			for p := s.Parent; p >= 0; p = spans[p].Parent {
				g.depth++
			}
			groups[k] = g
		}
		g.durs = append(g.durs, s.us())
		g.selfs = append(g.selfs, self[s.ID])
	}
	rows := make([]stageRow, 0, len(groups))
	for k, g := range groups {
		rows = append(rows, stageRow{Kind: k.kind, Name: k.name, Layer: g.layer, Depth: g.depth, N: len(g.durs), MedianUS: median(g.durs), SelfUS: median(g.selfs)})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		return a.Name < b.Name
	})
	return rows
}

// selfSumUS adds the self times of one kind's rows.
func selfSumUS(rows []stageRow, kind string) float64 {
	var sum float64
	for _, r := range rows {
		if r.Kind == kind {
			sum += r.SelfUS
		}
	}
	return sum
}

// tracedKind compares one kind's traced ladder with its untraced
// round trips.
type tracedKind struct {
	N             int     `json:"n"`
	UntracedP50US float64 `json:"untraced_p50_us"`
	TracedP50US   float64 `json:"traced_p50_us"`
	SelfSumUS     float64 `json:"self_sum_us"`
	// UnattributedUS is the part of the untraced p50 the self times do
	// not account for; it is 0 while they land within 15% of it.
	UnattributedUS float64 `json:"unattributed_us"`
}

func printStages(w io.Writer, rows []stageRow, kinds map[string]tracedKind) {
	last := ""
	for _, r := range rows {
		if r.Kind != last {
			last = r.Kind
			fmt.Fprintf(w, "  stages of %s: self times sum to %.1f us", r.Kind, selfSumUS(rows, r.Kind))
			if tk, ok := kinds[r.Kind]; ok {
				fmt.Fprintf(w, "; untraced p50 %.1f us, traced p50 %.1f us (n=%d)", tk.UntracedP50US, tk.TracedP50US, tk.N)
				if tk.UnattributedUS != 0 {
					fmt.Fprintf(w, "; unattributed_us %.1f", tk.UnattributedUS)
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "    %*s%-44s %-28s n=%-5d median %9.1f us  self %9.1f us\n", 2*r.Depth, "", r.Name, r.Layer, r.N, r.MedianUS, r.SelfUS)
	}
}

// runOps sends ops one after another on one connection and returns
// their samples; with a tracer, each round trip is also a root span.
func runOps(ctx context.Context, lc *loadClient, ops []op, tr *tracer, budget time.Duration) ([]sample, []int) {
	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
	}
	samples := make([]sample, 0, len(ops))
	roots := make([]int, 0, len(ops))
	for i := range ops {
		if budget > 0 && time.Since(epoch) > budget {
			break
		}
		o := &ops[i]
		s := lc.send(ctx, epoch, o)
		id := -1
		if tr != nil {
			// The span is the sample's own interval: the reply's output
			// check, which runs inside send, is not part of the round trip.
			id = tr.begin(-1, i, variant(o, s.cache), rungClient(o.Kind), "server+pkg/client")
			tr.spans[id].Start, tr.spans[id].End = int64(s.start), int64(s.end)
		}
		samples = append(samples, s)
		roots = append(roots, id)
	}
	return samples, roots
}

func rungClient(kind string) string {
	if kind == kindIns {
		return "client.Insert"
	}
	return "client.Query"
}

// variant names what a span belongs to: the op's kind and shape, and
// for a cacheable read whether it hit, which is a different code path.
// Spans of different variants are never pooled.
func variant(o *op, cache string) string {
	v := o.Kind + ":" + o.Shape
	if cache == "hit" || cache == "miss" {
		v += "/" + cache
	}
	return v
}
