package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/internal/workload"
	"github.com/approxdb/congress/internal/zipf"
	"github.com/approxdb/congress/pkg/client"
)

// op is one request of a schedule together with what its reply must
// look like. Request bodies are built here, before any server starts,
// so the servers only ever see generated inputs.
type op struct {
	Kind   string                `json:"kind"`
	Query  *client.QueryRequest  `json:"query,omitempty"`
	Insert *client.InsertRequest `json:"insert,omitempty"`
	// Groups is the number of rows (sql) or groups (est, hyb) the reply
	// must hold.
	Groups int `json:"groups"`
	// Truth indexes schedule.Truths, or is -1 when the reply is checked
	// for shape only.
	Truth int `json:"truth"`
	// Shape sizes the op within its kind: g0 to g3 for a read over that
	// many grouping columns, x<rows> for an insert. The traced pass keeps
	// shapes apart, as it keeps kinds apart: a stage table over ops of
	// different sizes would describe none of them.
	Shape string `json:"shape"`
}

// truthDef names one exact answer computed once at set-up. SQL truths
// run SQL exactly against the base table; estimate truths compare with
// an exact group-by over Grouping.
type truthDef struct {
	SQL       string   `json:"sql,omitempty"`
	GroupCols int      `json:"group_cols"`
	Grouping  []string `json:"grouping,omitempty"`
	Agg       string   `json:"agg,omitempty"`
}

// schedule is every client's full op list for one workload and seed.
type schedule struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Clients  [][]op `json:"clients"`
	// Final ops are sent once after the measured window, as part of the
	// output check.
	Final  []op       `json:"final,omitempty"`
	Truths []truthDef `json:"truths"`
}

// fingerprint hashes the schedule's JSON form; the same workload, seed
// and client count give the same bytes.
func (s *schedule) fingerprint() (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// tableSeed generates the table and the synopsis of every run: the
// data set is fixed, as a TPC-D scale factor's is, and --seed varies the
// traffic sent at it. Latency depends on the data (which values the
// group-by columns draw, how long their renderings are): across table
// seeds sql_scan's p50 moved by 10% while repeats of one seed stayed
// within 1%, which would have buried the regressions the bounds exist
// to catch.
const tableSeed = 1

// generateTable is the one place a workload's table comes from.
func generateTable(wl workloadDef) (*engine.Relation, error) {
	return tpcd.Generate(tpcd.Params{
		TableSize: wl.rows, NumGroups: wl.groups, GroupSkew: defaultSkew, Seed: tableSeed,
	})
}

// groupings are the three group-by granularities of the lineitem
// synopsis: 1, 2 and all 3 grouping attributes.
var groupings = [][]string{
	tpcd.GroupingAttrs[:1],
	tpcd.GroupingAttrs[:2],
	tpcd.GroupingAttrs,
}

// countGroups returns the number of distinct groups of rel under each
// of groupings.
func countGroups(rel *engine.Relation) ([]int, error) {
	out := make([]int, len(groupings))
	for gi, g := range groupings {
		idx := make([]int, len(g))
		for i, name := range g {
			if idx[i] = rel.Schema.Index(name); idx[i] < 0 {
				return nil, fmt.Errorf("bench: %s has no column %q", rel.Name, name)
			}
		}
		seen := make(map[string]struct{})
		var sb strings.Builder
		for _, row := range rel.Rows() {
			sb.Reset()
			for _, ci := range idx {
				sb.WriteString(row[ci].String())
				sb.WriteByte(0x1f)
			}
			seen[sb.String()] = struct{}{}
		}
		out[gi] = len(seen)
	}
	return out, nil
}

func buildSchedule(wl workloadDef, seed int64, clients int, rel *engine.Relation) (*schedule, error) {
	ng, err := countGroups(rel)
	if err != nil {
		return nil, err
	}
	s := &schedule{Workload: wl.Name, Seed: seed, Clients: make([][]op, clients)}
	for ci := range s.Clients {
		rng := rand.New(rand.NewSource(seed*7919 + int64(ci)*104729 + int64(len(wl.Name))))
		switch wl.Name {
		case "sql_scan":
			s.Clients[ci] = s.sqlScanOps(wl, rng, rel.NumRows(), ng)
		case "dashboard_rw":
			s.Clients[ci] = s.dashboardOps(wl, rng, seed, ci, rel, ng)
		case "dist_estimate":
			s.Clients[ci] = s.distEstimateOps(wl, rng, ng)
		case "ingest_durable":
			s.Clients[ci] = ingestOps(wl, rng, ci, rel)
		default:
			return nil, fmt.Errorf("bench: no schedule for workload %q", wl.Name)
		}
	}
	if wl.Name == "sql_scan" {
		// SQL replies carry no bounds, so bound coverage on this topology
		// is taken from one sampled estimate per grouping after the window.
		for gi, g := range groupings {
			req := client.EstimateRequest{Table: tableName, GroupBy: g, Agg: "sum", Column: aggColumn, Confidence: confidence}
			s.Final = append(s.Final, op{
				Kind: kindEst, Query: &client.QueryRequest{Estimate: &req, NoCache: true, NoHybrid: true},
				Groups: ng[gi], Truth: s.truth(truthDef{Grouping: g, Agg: "sum"}), Shape: fmt.Sprintf("g%d", len(g)),
			})
		}
	}
	return s, nil
}

// truth registers an exact answer once and returns its index.
func (s *schedule) truth(t truthDef) int {
	for i, have := range s.Truths {
		if have.SQL == t.SQL && have.Agg == t.Agg && strings.Join(have.Grouping, ",") == strings.Join(t.Grouping, ",") {
			return i
		}
	}
	s.Truths = append(s.Truths, t)
	return len(s.Truths) - 1
}

// qg0TruthsPerClient is how many of a client's freshly drawn Q_g0
// ranges get an exact answer; the rest are checked for shape only,
// since each exact answer costs a base-table scan at set-up.
const qg0TruthsPerClient = 8

// sqlScanOps: texts drawn uniformly from Q_g2, Q_g3 and freshly drawn
// Q_g0 range predicates (width 7% of T, the paper's Table 2), all with
// no_cache. A third of the requests carry a text the server has never
// seen, so the parse and plan caches miss on them and the result cache
// is never consulted: every request pays rewrite-to-JSON in full.
func (s *schedule) sqlScanOps(wl workloadDef, rng *rand.Rand, rows int, ng []int) []op {
	width := int64(float64(rows) * 0.07)
	qg2 := &client.QueryRequest{SQL: workload.Qg2, NoCache: true}
	qg3 := &client.QueryRequest{SQL: workload.Qg3, NoCache: true}
	qg2Truth := s.truth(truthDef{SQL: workload.Qg2, GroupCols: 2})
	qg3Truth := s.truth(truthDef{SQL: workload.Qg3, GroupCols: 3})
	ops := make([]op, wl.schedLen)
	drawn := 0
	for i := range ops {
		switch rng.Intn(3) {
		case 0:
			ops[i] = op{Kind: kindSQL, Query: qg2, Groups: ng[1], Truth: qg2Truth, Shape: "g2"}
		case 1:
			ops[i] = op{Kind: kindSQL, Query: qg3, Groups: ng[2], Truth: qg3Truth, Shape: "g3"}
		default:
			start := int64(rng.Float64() * 0.95 * float64(rows))
			text := workload.Qg0(start, width)
			truth := -1
			if drawn < qg0TruthsPerClient {
				truth = s.truth(truthDef{SQL: text})
				drawn++
			}
			ops[i] = op{Kind: kindSQL, Query: &client.QueryRequest{SQL: text, NoCache: true}, Groups: 1, Truth: truth, Shape: "g0"}
		}
	}
	return ops
}

const (
	dashboardPool      = 32
	dashboardZipf      = 1.1
	dashboardInsertPct = 2
)

// dashboardTexts is the fixed pool a dashboard cycles through: mostly
// small group-bys and range totals, with two finest-grouping reports
// far down the popularity order. All clients share the pool, as the
// panels of one dashboard would.
func dashboardTexts(seed int64, rows int, ng []int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + 31))
	aggs := []string{
		"sum(l_quantity)", "sum(l_extendedprice)", "avg(l_quantity)", "count(*)",
		"sum(l_quantity), sum(l_extendedprice)", "avg(l_extendedprice)",
	}
	attrs := tpcd.GroupingAttrs
	width := int64(float64(rows) * 0.07)
	pool := make([]op, dashboardPool)
	for i := range pool {
		agg := aggs[(i/4)%len(aggs)]
		by := 0 // grouping columns
		switch {
		case i%16 == 15:
			by = 3
		case i%4 == 0:
			by = 2
		case i%4 == 2:
			by = 1
		}
		text, groups := workload.Qg0(int64(rng.Float64()*0.95*float64(rows)), width), 1
		if by > 0 {
			cols := strings.Join(attrs[:by], ", ")
			text, groups = fmt.Sprintf("select %s, %s from %s group by %s", cols, agg, tableName, cols), ng[by-1]
		}
		pool[i] = op{Kind: kindSQL, Query: &client.QueryRequest{SQL: text}, Groups: groups, Truth: -1, Shape: fmt.Sprintf("g%d", by)}
	}
	return pool
}

// dashboardOps: 98% reads of the 32 pooled texts picked by Zipf(1.1)
// and 2% single-row inserts. The working set fits the result cache, and
// every insert bumps the synopsis epoch and so invalidates all of it:
// reads hit until the next insert, then each text misses once.
func (s *schedule) dashboardOps(wl workloadDef, rng *rand.Rand, seed int64, ci int, rel *engine.Relation, ng []int) []op {
	pool := dashboardTexts(seed, rel.NumRows(), ng)
	pick := zipf.MustNew(dashboardPool, dashboardZipf)
	base := rel.Rows()
	nextID := int64(rel.NumRows()) + 1 + int64(ci)<<32
	ops := make([]op, wl.schedLen)
	for i := range ops {
		if rng.Intn(100) < dashboardInsertPct {
			ops[i] = insertOp(rng, base, &nextID, 1)
			continue
		}
		ops[i] = pool[pick.Next(rng)]
	}
	return ops
}

var estimateAggs = []string{"sum", "count", "avg"}

// distEstimateOps sends the three groupings x {sum, count, avg}, each
// combination once per block of nine in a seeded random order, with est
// and hyb alternating; all with no_cache. The finest grouping sends
// ~1000-group partials from each shard, the codec-heavy case; hyb
// answers the same request from the cube in place of the sample scan,
// which separates scan time from wire time.
//
// The order is shuffled per client because a fixed rotation phase-locks
// two closed-loop clients: both cycles last equally long, so whichever
// of the other client's requests a given request first overlaps, it
// overlaps for the whole run, and p50_ms then varied by 22% between
// runs depending on where the lock fell. Blocks keep the shares of the
// three shapes at exact thirds, which keeps the median inside the
// middle shape.
func (s *schedule) distEstimateOps(wl workloadDef, rng *rand.Rand, ng []int) []op {
	type combo struct {
		est, hyb *client.QueryRequest
		groups   int
		truth    int
		shape    string
	}
	var combos []combo
	for gi, g := range groupings {
		for _, agg := range estimateAggs {
			req := client.EstimateRequest{Table: tableName, GroupBy: g, Agg: agg, Column: aggColumn, Confidence: confidence}
			combos = append(combos, combo{
				est:    &client.QueryRequest{Estimate: &req, NoCache: true, NoHybrid: true},
				hyb:    &client.QueryRequest{Estimate: &req, NoCache: true},
				groups: ng[gi],
				truth:  s.truth(truthDef{Grouping: g, Agg: agg}),
				shape:  fmt.Sprintf("g%d", len(g)),
			})
		}
	}
	ops := make([]op, 0, wl.schedLen)
	for len(ops) < wl.schedLen {
		for _, ci := range rng.Perm(len(combos)) {
			c := combos[ci]
			ops = append(ops,
				op{Kind: kindEst, Query: c.est, Groups: c.groups, Truth: c.truth, Shape: c.shape},
				op{Kind: kindHyb, Query: c.hyb, Groups: c.groups, Truth: c.truth, Shape: c.shape})
		}
	}
	return ops[:wl.schedLen]
}

// ingestOps: 100-row insert batches and nothing else, the paper's
// section 6 maintenance path. Rows land in existing groups (grouping
// values are copied from random base rows), so the group set, and with
// it the follower-equals-leader check, stays fixed.
func ingestOps(wl workloadDef, rng *rand.Rand, ci int, rel *engine.Relation) []op {
	base := rel.Rows()
	nextID := int64(rel.NumRows()) + 1 + int64(ci)<<32
	ops := make([]op, wl.schedLen)
	for i := range ops {
		ops[i] = insertOp(rng, base, &nextID, batchRows)
	}
	return ops
}

// Column order of the generated lineitem table.
const (
	colID = iota
	colFlag
	colStatus
	colDate
	colQty
	colPrice
)

func insertOp(rng *rand.Rand, base []engine.Row, nextID *int64, n int) op {
	rows := make([][]any, n)
	for i := range rows {
		tmpl := base[rng.Intn(len(base))]
		rows[i] = []any{
			*nextID, tmpl[colFlag].I, tmpl[colStatus].I, tmpl[colDate].String(),
			float64(1 + rng.Intn(50)), 1.5 * float64(1+rng.Intn(1000)),
		}
		*nextID++
	}
	return op{Kind: kindIns, Insert: &client.InsertRequest{Table: tableName, Rows: rows}, Groups: n, Truth: -1, Shape: fmt.Sprintf("x%d", n)}
}

// typedRows converts an insert body to engine rows, for replaying the
// insert in-process below the HTTP layer.
func typedRows(req *client.InsertRequest) ([]congress.Row, error) {
	out := make([]congress.Row, len(req.Rows))
	for i, r := range req.Rows {
		date, err := engine.ParseDate(r[colDate].(string))
		if err != nil {
			return nil, err
		}
		out[i] = congress.Row{
			congress.I(r[colID].(int64)), congress.I(r[colFlag].(int64)), congress.I(r[colStatus].(int64)),
			date, congress.F(r[colQty].(float64)), congress.F(r[colPrice].(float64)),
		}
	}
	return out, nil
}
