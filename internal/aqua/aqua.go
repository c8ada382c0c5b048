// Package aqua is the approximate-query middleware of Section 2: it
// precomputes congressional (or House/Senate/Basic Congress) synopses of
// warehouse relations, stores them as regular relations in the backing
// engine, intercepts user queries, rewrites them with one of the
// Section 5 strategies, executes the rewrite, and returns approximate
// answers — optionally annotated with error-bound columns.
package aqua

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/metrics"
	"github.com/approxdb/congress/internal/qcache"
	"github.com/approxdb/congress/internal/rewrite"
	"github.com/approxdb/congress/internal/sample"
	"github.com/approxdb/congress/internal/sqlparse"
)

// Config configures one synopsis over one base relation.
type Config struct {
	// Table is the base relation name.
	Table string
	// GroupCols is the grouping attribute set G.
	GroupCols []string
	// Strategy is the allocation strategy (default Congress).
	Strategy core.Strategy
	// Space is the synopsis budget X in tuples.
	Space int
	// Rewrite is the default rewriting strategy for answering queries
	// (default Integrated, the paper's recommendation for read-mostly
	// warehouses).
	Rewrite rewrite.Strategy
	// WithErrorColumns appends Aqua error-bound columns to answers
	// (Integrated rewriting only).
	WithErrorColumns bool
	// VarianceColumn, when set, enables the Section 8 multi-criteria
	// extension: a Neyman weight vector over the named aggregate
	// column's per-group variance is combined into the allocation, so
	// high-variance groups receive extra sample space.
	VarianceColumn string
	// TargetGroupings, when set, specializes the synopsis to a known
	// query mix: instead of Strategy's vectors, only the listed
	// groupings (each a subset of GroupCols; nil/empty slice means the
	// no-group-by query) compete for space. See the paper's Section
	// 4.5-4.7 discussion of specializing to query subsets.
	TargetGroupings [][]string
	// Recency, when set, applies the Section 8 ageing bias: groups are
	// weighted by how recent their value in Recency.Column is, so fresh
	// data is over-represented in the sample relative to old data.
	Recency *Recency
	// DeltaMaintenance selects the reservoir+delta Congress maintenance
	// algorithm (the Section 6 generalization of Basic Congress)
	// instead of the default Eq. 8 probability-decay maintainer. Only
	// meaningful for the Congress strategy.
	DeltaMaintenance bool
	// Deprecated: BuildWorkers is ignored. The build scan always runs on
	// core.DefaultWorkers() goroutines, and the sample does not depend
	// on how many there are. The field stays so that logged configs
	// decode.
	BuildWorkers int
	// Seed fixes the sampling randomness (0 = seed 1).
	Seed int64
}

// Aqua is the middleware instance sitting atop one engine catalog.
//
// Aqua is safe for concurrent use: the synopsis registry is guarded by
// an RWMutex, and each Synopsis serializes its own mutations (maintainer
// feeds, refreshes) behind a per-synopsis lock while queries read
// immutable sample snapshots.
type Aqua struct {
	cat *engine.Catalog
	tel *metrics.Telemetry

	// parse memoizes query parsing, a pure function of the query text,
	// so it needs no invalidation; it is what lets a result-cache hit
	// skip the parse, since the result key holds the fingerprint.
	// Rewriting runs on every miss. results is the
	// epoch-invalidated answer cache — nil (off) unless a warehouse
	// front-end opts in via EnableResultCache, so experiment harnesses
	// measuring scan cost through Answer are never silently cached.
	parse   *sqlparse.ParseCache
	results atomic.Pointer[qcache.Cache]

	mu       sync.RWMutex
	synopses map[string]*Synopsis // by lower-cased base table name
}

// New creates an Aqua instance over the catalog (the "warehouse DBMS").
func New(cat *engine.Catalog) *Aqua {
	return &Aqua{
		cat:      cat,
		tel:      metrics.NewTelemetry(),
		parse:    sqlparse.NewParseCache(defaultParseEntries),
		synopses: make(map[string]*Synopsis),
	}
}

// Catalog returns the backing engine catalog.
func (a *Aqua) Catalog() *engine.Catalog { return a.cat }

// Telemetry returns the middleware's operational counters.
func (a *Aqua) Telemetry() *metrics.Telemetry { return a.tel }

// Synopsis is one materialized biased sample with the relations backing
// all four rewrite strategies, plus an incremental maintainer that keeps
// the sample up to date under inserts without touching the base table.
//
// The mutex guards the mutable state: the current sample snapshot and
// its read view (swapped wholesale by Refresh) and the maintainer
// (mutated by every Insert). Sample snapshots and views are immutable
// once published, so readers that grab the pointer under the lock may
// keep using it lock-free afterwards.
type Synopsis struct {
	cfg      Config
	grouping *core.Grouping
	alloc    *core.Allocation
	tel      *metrics.Telemetry

	// id is unique across every synopsis ever created in the process and
	// epoch counts data-changing events (maintainer feeds, refreshes,
	// scale-factor updates). Together they version cached answers: a
	// result cached under (id, epoch) becomes unreachable the moment the
	// epoch advances, and ids prevent a re-created synopsis for the same
	// table from colliding with entries of its predecessor.
	id    uint64
	epoch atomic.Uint64

	mu      sync.RWMutex
	sample  *sample.Stratified[engine.Row]
	view    *estimate.Strata // sample as published: cs_<table> and its stratum ranges
	pending int64            // maintainer inserts not yet surfaced by Refresh

	maintainer core.Maintainer

	// exact is the hybrid estimator's exact-aggregate cube (see
	// hybrid.go): SUM/COUNT prefixes over G for every numeric base
	// column, fed under mu by the same insert stream as the maintainer.
	// The pointer is fixed at creation/restore (nil when unavailable);
	// contents are guarded by mu. exactEpoch is the synopsis epoch the
	// cube was last proven synchronized at — ExactPartials answers only
	// while exactEpoch == epoch. The ordinal maps are immutable after
	// creation.
	exact            *datacube.Cube
	exactEpoch       atomic.Uint64
	exactMeasureIdx  []int          // schema ordinals of tracked measures
	exactMeasureName map[int]string // schema ordinal -> measure name
	exactGroupPos    map[int]int    // schema ordinal -> position in G

	// Relations registered in the catalog: the one sample relation every
	// rewrite strategy reads, and the aux scale-factor relations of the
	// Normalized and Key-normalized strategies. Names are fixed at
	// creation.
	sampleName  string // base columns + sf + gid
	normAuxName string // group columns + sf
	keyAuxName  string // gid + sf
}

// CreateSynopsis builds a synopsis: scans the base relation, allocates
// sample space with the configured strategy, materializes the stratified
// sample, and registers the sample relations for all four rewrite
// strategies. It also arms an incremental maintainer seeded with the
// same strategy so future inserts keep the synopsis fresh.
func (a *Aqua) CreateSynopsis(cfg Config) (*Synopsis, error) {
	start := time.Now()
	if cfg.Space <= 0 {
		return nil, fmt.Errorf("aqua: synopsis space must be positive")
	}
	rel, ok := a.cat.Lookup(cfg.Table)
	if !ok {
		return nil, fmt.Errorf("aqua: %w %q", ErrUnknownTable, cfg.Table)
	}
	g, err := core.NewGrouping(rel.Schema, cfg.GroupCols)
	if err != nil {
		return nil, err
	}
	// Estimate group keys join rendered grouping values with
	// datacube.KeySep (U+001F), so a value containing the separator would
	// silently merge or split groups. Table.Insert rejects such rows once
	// a synopsis exists; rows that arrived earlier — or through CSV and
	// generator paths that bypass Insert — are caught here, before any
	// sample is built over them.
	if err := rejectReservedSeparator(rel, g, cfg.Table); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	workers := core.DefaultWorkers()
	cube, err := core.BuildCube(rel, g, workers)
	if err != nil {
		return nil, err
	}
	if cube.Total() == 0 {
		return nil, fmt.Errorf("aqua: cannot build a synopsis over empty table %q", cfg.Table)
	}

	// Assemble the Figure 19 weight-vector table: either the chosen
	// strategy's vectors or, when the query mix is known, one vector
	// per targeted grouping — plus the optional variance criterion.
	X := float64(cfg.Space)
	var vecs []core.WeightVector
	if len(cfg.TargetGroupings) > 0 {
		for _, attrs := range cfg.TargetGroupings {
			mask, err := core.MaskFor(cube, attrs)
			if err != nil {
				return nil, err
			}
			vecs = append(vecs, core.GroupingVector(cube, X, mask))
		}
	} else {
		vecs, err = core.StrategyVectors(cfg.Strategy, cube, X)
		if err != nil {
			return nil, err
		}
	}
	if cfg.VarianceColumn != "" {
		sds, err := core.GroupStdDevs(rel, g, cfg.VarianceColumn)
		if err != nil {
			return nil, err
		}
		vecs = append(vecs, core.NeymanVector(cube, X, sds))
	}
	if cfg.Recency != nil {
		rv, err := recencyVector(cfg.Recency, rel, g, cube, X)
		if err != nil {
			return nil, err
		}
		vecs = append(vecs, rv)
	}
	alloc := core.CombineVectors(X, vecs...)
	st, err := core.Materialize(rel, g, cube, alloc, seed, workers)
	if err != nil {
		return nil, err
	}

	s := &Synopsis{cfg: cfg, grouping: g, sample: st, alloc: alloc, tel: a.tel, id: synopsisSeq.Add(1)}
	s.nameTables()
	if err := s.materialize(a.cat, rel.Schema); err != nil {
		return nil, err
	}

	// Arm the matching maintainer and seed it with the current table
	// contents, so later Refresh snapshots cover the whole relation —
	// this pass is exactly the paper's one-pass construction.
	rng := rand.New(rand.NewSource(seed))
	switch cfg.Strategy {
	case core.House:
		s.maintainer, err = core.NewHouseMaintainer(g, cfg.Space, rng)
	case core.Senate:
		s.maintainer, err = core.NewSenateMaintainer(g, cfg.Space, rng)
	case core.BasicCongress:
		s.maintainer, err = core.NewBasicCongressMaintainer(g, cfg.Space, rng)
	default:
		if cfg.DeltaMaintenance {
			s.maintainer, err = core.NewCongressDeltaMaintainer(g, cfg.Space, rng)
		} else {
			s.maintainer, err = core.NewCongressMaintainer(g, cfg.Space, rng)
		}
	}
	if err != nil {
		return nil, err
	}
	// The exact cube shares the seeding pass below, so the hybrid
	// estimator is live from creation. A build failure (cannot happen for
	// a schema that passed NewGrouping, but defensive) just disables
	// hybrid answering; the sample path is unaffected.
	if exact, ords, byOrd, groupPos, cerr := newExactCube(rel.Schema, g.Attrs); cerr == nil {
		s.exact, s.exactMeasureIdx, s.exactMeasureName, s.exactGroupPos = exact, ords, byOrd, groupPos
	}
	rows := rel.Rows()
	for _, row := range rows {
		s.maintainer.Insert(row)
		s.feedExactLocked(row)
	}

	// Two construction scans (cube + materialize) plus the maintainer
	// seeding pass read the whole relation.
	a.tel.AddRowsScanned(3 * int64(len(rows)))
	a.tel.AddStrataTouched(int64(st.NumStrata()))
	a.tel.ObserveBuild(time.Since(start))

	a.mu.Lock()
	a.synopses[strings.ToLower(cfg.Table)] = s
	a.mu.Unlock()
	return s, nil
}

// rejectReservedSeparator fails synopsis creation when any grouping
// value already in rel contains datacube.KeySep, the byte composite
// group keys are joined with. The error wraps ErrBadQuery for errors.Is
// classification: the data violates the public key-separator contract.
func rejectReservedSeparator(rel *engine.Relation, g *core.Grouping, table string) error {
	cols := g.Columns()
	for _, row := range rel.Rows() {
		for _, ci := range cols {
			if ci < len(row) && row[ci].K == engine.KindString &&
				strings.Contains(row[ci].S, datacube.KeySep) {
				return fmt.Errorf("%w: grouping value %q in table %q contains the reserved key separator U+001F",
					ErrBadQuery, row[ci].S, table)
			}
		}
	}
	return nil
}

// Synopsis returns the synopsis for a base table, if any.
func (a *Aqua) Synopsis(table string) (*Synopsis, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	s, ok := a.synopses[strings.ToLower(table)]
	return s, ok
}

// Synopses returns every registered synopsis, sorted by base table name
// so listings (the server's /v1/synopses, tests) are deterministic.
func (a *Aqua) Synopses() []*Synopsis {
	a.mu.RLock()
	out := make([]*Synopsis, 0, len(a.synopses))
	for _, s := range a.synopses {
		out = append(out, s)
	}
	a.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i].cfg.Table) < strings.ToLower(out[j].cfg.Table)
	})
	return out
}

func (s *Synopsis) nameTables() {
	base := strings.ToLower(s.cfg.Table)
	s.sampleName = "cs_" + base
	s.normAuxName = "csn_" + base + "_aux"
	s.keyAuxName = "csk_" + base + "_aux"
}

// materialize registers the sample relation and the two aux relations
// for the current sample and publishes its read view. Callers hold mu or
// have not published the synopsis yet.
func (s *Synopsis) materialize(cat *engine.Catalog, baseSchema *engine.Schema) error {
	groupIdx := s.grouping.Columns()
	view, err := estimate.NewStrata(s.sampleName, baseSchema, s.sample, groupIdx)
	if err != nil {
		return err
	}

	// Aux relations: grouping columns + sf, and gid + sf.
	sfCol := engine.Column{Name: "sf", Kind: engine.KindFloat}
	groupColDefs := make([]engine.Column, 0, len(groupIdx)+1)
	for _, gi := range groupIdx {
		groupColDefs = append(groupColDefs, baseSchema.Cols[gi])
	}
	normAux := engine.NewRelation(s.normAuxName,
		engine.MustSchema(append(groupColDefs, sfCol)...))
	keyAux := engine.NewRelation(s.keyAuxName,
		engine.MustSchema(engine.Column{Name: "gid", Kind: engine.KindInt}, sfCol))

	var normRows, keyRows []engine.Row
	for i, r := range view.Ranges() {
		if r.Lo == r.Hi {
			continue
		}
		sf, first := engine.NewFloat(r.SF), view.Row(r.Lo)
		auxRow := make(engine.Row, 0, len(groupIdx)+1)
		for _, gi := range groupIdx {
			auxRow = append(auxRow, first[gi])
		}
		normRows = append(normRows, append(auxRow, sf))
		keyRows = append(keyRows, engine.Row{engine.NewInt(int64(i + 1)), sf})
	}
	if err := normAux.InsertAll(normRows); err != nil {
		return err
	}
	if err := keyAux.InsertAll(keyRows); err != nil {
		return err
	}

	cat.Register(view.Relation())
	cat.Register(normAux)
	cat.Register(keyAux)
	s.view = view
	return nil
}

// Tables returns the rewrite.Tables wiring for the given strategy.
func (s *Synopsis) Tables(strat rewrite.Strategy) rewrite.Tables {
	t := rewrite.Tables{
		Base:             s.cfg.Table,
		Sample:           s.sampleName,
		GroupCols:        s.cfg.GroupCols,
		WithErrorColumns: s.cfg.WithErrorColumns,
	}
	switch strat {
	case rewrite.Normalized:
		t.Aux = s.normAuxName
	case rewrite.KeyNormalized:
		t.Aux = s.keyAuxName
	}
	return t
}

// Strata returns the read view of the current sample, the input of
// estimate.PartialsCtx. It is immutable once published: a later Refresh
// publishes a new view rather than mutating this one, so callers may
// read it without further synchronization.
func (s *Synopsis) Strata() *estimate.Strata {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view
}

// AllocationRow is one line of the Figure 5-style allocation table.
type AllocationRow struct {
	// Group holds the rendered grouping-column values of the finest
	// group.
	Group []string
	// Population is n_g.
	Population int64
	// PreScale is the row-wise max over weight vectors before scaling.
	PreScale float64
	// Target is the final fractional allocation.
	Target float64
	// Actual is the number of tuples materialized in the stratum.
	Actual int
}

// AllocationTable reports how the synopsis's space budget was divided
// among the finest groups — the per-synopsis analogue of the paper's
// Figure 5 — sorted by descending target.
func (s *Synopsis) AllocationTable() []AllocationRow {
	ranges := s.Strata().Ranges()
	out := make([]AllocationRow, 0, len(ranges))
	for _, r := range ranges {
		out = append(out, AllocationRow{
			Group:      append([]string(nil), r.Parts...),
			Population: r.Population,
			PreScale:   s.alloc.PreScale[r.Key],
			Target:     s.alloc.Targets[r.Key],
			Actual:     r.Hi - r.Lo,
		})
	}
	// Total order (target desc, then group, then population) so repeated
	// calls — and hence API responses and tests — render identically.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Target != out[j].Target {
			return out[i].Target > out[j].Target
		}
		gi, gj := fmt.Sprint(out[i].Group), fmt.Sprint(out[j].Group)
		if gi != gj {
			return gi < gj
		}
		return out[i].Population > out[j].Population
	})
	return out
}

// Allocation exposes the space allocation that produced the synopsis.
func (s *Synopsis) Allocation() *core.Allocation { return s.alloc }

// Grouping exposes the grouping G of the synopsis.
func (s *Synopsis) Grouping() *core.Grouping { return s.grouping }

// Table returns the base relation name the synopsis covers.
func (s *Synopsis) Table() string { return s.cfg.Table }

// GroupCols returns a copy of the grouping attribute set G.
func (s *Synopsis) GroupCols() []string {
	return append([]string(nil), s.cfg.GroupCols...)
}

// Strategy returns the allocation strategy the synopsis was built with.
func (s *Synopsis) Strategy() core.Strategy { return s.cfg.Strategy }

// Space returns the synopsis space budget X in tuples.
func (s *Synopsis) Space() int { return s.cfg.Space }

// DefaultRewrite returns the rewriting strategy Answer uses for this
// synopsis.
func (s *Synopsis) DefaultRewrite() rewrite.Strategy { return s.cfg.Rewrite }

// Pending returns the number of maintainer inserts not yet surfaced by a
// Refresh.
func (s *Synopsis) Pending() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pending
}

// Maintainer exposes the incremental maintainer armed at creation.
// Maintainers are not internally synchronized: callers driving one
// directly must not race with concurrent Insert or Refresh on the same
// synopsis.
func (s *Synopsis) Maintainer() core.Maintainer { return s.maintainer }

// Insert feeds a newly inserted warehouse tuple to the synopsis
// maintainer (the base relation is assumed to be updated by the caller;
// Aqua never re-reads it, per Section 6). Safe for concurrent use with
// Refresh and with readers.
func (s *Synopsis) Insert(row engine.Row) {
	s.mu.Lock()
	s.maintainer.Insert(row)
	s.feedExactLocked(row)
	hasExact := s.exact != nil
	s.pending++
	s.mu.Unlock()
	s.tel.MaintainerInsert()
	e := s.bumpEpoch()
	if hasExact {
		// The insert fed both the base relation (caller) and the cube, so
		// the cube is synchronized at the epoch this insert produced. Any
		// interleaved non-insert mutation bumps the epoch past e and wins:
		// syncExactEpoch never advances past the freshest proven point.
		s.syncExactEpoch(e)
	}
}

// Epoch returns the synopsis's current data version. Every maintainer
// feed, refresh, and scale-factor update advances it; cached answers are
// keyed by epoch so an advance invalidates them all at once.
func (s *Synopsis) Epoch() uint64 { return s.epoch.Load() }

// ID returns the process-unique synopsis id (part of cache keys).
func (s *Synopsis) ID() uint64 { return s.id }

// bumpEpoch advances the data version and returns the new epoch. It
// must run only after the data change is visible (e.g. after Refresh has
// registered the new sample relations): a reader that observes the new
// epoch is then guaranteed to also observe the new data, so a cached
// entry keyed by epoch E can never hold data older than version E. The
// converse race — a reader that loaded epoch E just before the bump
// caches version E+1 data under key E — only ever stores *fresher* data
// than the key implies, which is harmless.
//
// Callers that are NOT insert feeds (Refresh, UpdateScaleFactor,
// restore) leave exactEpoch behind on purpose: the advance marks the
// exact cube unproven, disabling hybrid answering until the next insert
// re-synchronizes it (see hybrid.go).
func (s *Synopsis) bumpEpoch() uint64 {
	e := s.epoch.Add(1)
	s.tel.CacheInvalidation()
	return e
}

// synopsisSeq hands out process-unique synopsis ids.
var synopsisSeq atomic.Uint64

// Refresh re-materializes the sample relations from the maintainer's
// current snapshot, making maintained state visible to queries. Safe for
// concurrent use with Insert and with readers; concurrent Refresh calls
// on the same synopsis are serialized.
func (a *Aqua) Refresh(table string) error {
	start := time.Now()
	s, ok := a.Synopsis(table)
	if !ok {
		return fmt.Errorf("%w %q", ErrNoSynopsis, table)
	}
	rel, ok := a.cat.Lookup(s.cfg.Table)
	if !ok {
		return fmt.Errorf("aqua: base table %q vanished", s.cfg.Table)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.maintainer.Snapshot()
	if err != nil {
		return err
	}
	s.sample = st
	if err := s.materialize(a.cat, rel.Schema); err != nil {
		return err
	}
	drained := s.pending
	s.pending = 0
	// Bump strictly after materialize has registered the new sample
	// relations (see bumpEpoch's ordering contract).
	s.bumpEpoch()
	a.tel.MaintainerDrained(drained)
	a.tel.AddStrataTouched(int64(st.NumStrata()))
	a.tel.ObserveRefresh(time.Since(start))
	return nil
}

// Answer rewrites the query with the synopsis's default strategy and
// executes it, returning the approximate answer.
func (a *Aqua) Answer(query string) (*engine.Result, error) {
	res, _, err := a.AnswerQuery(context.Background(), query, QueryOptions{})
	return res, err
}

// AnswerWith answers using an explicit rewriting strategy (used by the
// Section 7.3 rewriting experiments).
func (a *Aqua) AnswerWith(query string, strat rewrite.Strategy) (*engine.Result, error) {
	res, _, err := a.AnswerQuery(context.Background(), query, QueryOptions{Strategy: strat, UseStrategy: true})
	return res, err
}

// RewriteOnly returns the rewritten SQL without executing it (for
// inspection and the CLI's EXPLAIN-style mode).
func (a *Aqua) RewriteOnly(query string, strat rewrite.Strategy) (string, error) {
	s, stmt, _, err := a.route(query)
	if err != nil {
		return "", err
	}
	out, err := rewrite.Rewrite(stmt, strat, s.Tables(strat))
	if err != nil {
		return "", err
	}
	return out.String(), nil
}

// Exact executes the query against the base relation, bypassing the
// synopsis (ground truth for experiments).
func (a *Aqua) Exact(query string) (*engine.Result, error) {
	return a.ExactCtx(context.Background(), query)
}

// ExactCtx is Exact under a context: parse errors are wrapped in
// ErrBadQuery and the deadline is observed inside the engine's scan
// loops.
func (a *Aqua) ExactCtx(ctx context.Context, query string) (*engine.Result, error) {
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return engine.ExecuteCtx(ctx, a.cat, stmt)
}

// route parses (through the parse cache) and resolves the target
// synopsis. The returned statement is shared with other callers of the
// same query text and must not be modified; the fingerprint is the
// normalized key of the result cache.
func (a *Aqua) route(query string) (*Synopsis, *sqlparse.SelectStmt, string, error) {
	stmt, fp, err := a.parse.Parse(query)
	if err != nil {
		return nil, nil, "", fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if len(stmt.From) != 1 || stmt.From[0].Subquery != nil {
		return nil, nil, "", fmt.Errorf("%w: approximate answering supports single-table queries", ErrBadQuery)
	}
	s, ok := a.Synopsis(stmt.From[0].Name)
	if !ok {
		return nil, nil, "", fmt.Errorf("%w %q", ErrNoSynopsis, stmt.From[0].Name)
	}
	return s, stmt, fp, nil
}

func (a *Aqua) answer(ctx context.Context, s *Synopsis, stmt *sqlparse.SelectStmt, strat rewrite.Strategy) (*engine.Result, error) {
	rewritten, err := rewrite.Rewrite(stmt, strat, s.Tables(strat))
	if err != nil {
		return nil, err
	}
	return engine.ExecuteCtx(ctx, a.cat, rewritten)
}
