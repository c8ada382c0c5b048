package estimate

import (
	"fmt"
	"sync"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// Strata is the published read view of one synopsis sample: the one
// sample relation every rewrite strategy reads, its columnar batch, and
// the strata in sorted key order, each a contiguous row range of that
// relation. It is built once per publish (build, refresh, restore).
// Its ranges and batch never change afterwards, so PartialsCtx reads
// them without locks and without touching the catalog; an update of
// the relation's rows in the catalog leaves the batch as published.
// The output layout of each projection of G is computed on first use
// and kept with the view (see slotPlan).
type Strata struct {
	rel    *engine.Relation
	batch  *engine.Batch
	gCols  []int
	ranges []StratumRange
	plans  []planOnce // indexed by projection mask over gCols
}

// planOnce holds one projection's slotPlan, built at most once.
type planOnce struct {
	once sync.Once
	p    *slotPlan
}

// slotPlan is the output layout of the grouping that keeps the G
// positions set in one projection mask: the output slot of every
// stratum range and, per slot, its joined key and the range whose
// rendered values it carries. Slots are numbered in first-appearance
// order over the ranges, the order PartialsCtx returns groups in.
type slotPlan struct {
	slot  []int32  // per range: its output slot, −1 for an empty range
	keys  []string // per slot: the projected values joined by datacube.KeySep, in G order
	first []int32  // per slot: the first range that maps to it
}

// StratumRange is one stratum of a Strata view. Its gid is its index in
// Ranges plus one.
type StratumRange struct {
	Key        string
	Lo, Hi     int     // rows [Lo,Hi) of the sample relation
	SF         float64 // the stratum's scale factor
	Population int64
	Parts      []string // the stratum's G values rendered by Value.String; nil when empty
}

// NewStrata lays st out as the sample relation name: the columns of
// base, then sf (the stratum's scale factor) and gid (the stratum's
// position in sorted key order, plus one). Strata follow one another in
// sorted key order, each sampled row cloned once; an empty stratum
// keeps its gid and holds no rows. gCols are the base ordinals of the
// synopsis grouping G. The batch the scan reads is built here, before
// the view is published.
func NewStrata(name string, base *engine.Schema, st *sample.Stratified[engine.Row], gCols []int) (*Strata, error) {
	if len(gCols) > datacube.MaxAttrs {
		return nil, fmt.Errorf("estimate: %d grouping columns exceeds limit %d", len(gCols), datacube.MaxAttrs)
	}
	schema, err := engine.NewSchema(append(append([]engine.Column(nil), base.Cols...),
		engine.Column{Name: "sf", Kind: engine.KindFloat},
		engine.Column{Name: "gid", Kind: engine.KindInt})...)
	if err != nil {
		return nil, err
	}
	keys := st.Keys()
	v := &Strata{gCols: gCols, ranges: make([]StratumRange, len(keys)), plans: make([]planOnce, 1<<len(gCols))}
	rows := make([]engine.Row, 0, st.Size())
	for i, key := range keys {
		s, _ := st.Get(key)
		r := StratumRange{Key: key, Lo: len(rows), SF: s.ScaleFactor(), Population: s.Population}
		sf, gid := engine.NewFloat(r.SF), engine.NewInt(int64(i+1))
		for _, row := range s.Items {
			rows = append(rows, append(append(make(engine.Row, 0, len(row)+2), row...), sf, gid))
		}
		r.Hi = len(rows)
		if r.Hi > r.Lo {
			r.Parts = make([]string, len(gCols))
			for j, c := range gCols {
				r.Parts[j] = s.Items[0][c].String()
			}
		}
		v.ranges[i] = r
	}
	v.rel = engine.NewRelation(name, schema)
	if err := v.rel.InsertAll(rows); err != nil {
		return nil, err
	}
	v.batch = v.rel.Batch()
	return v, nil
}

// Relation returns the sample relation the view ranges over, for
// registration in the catalog.
func (v *Strata) Relation() *engine.Relation { return v.rel }

// Ranges returns the strata in sorted key order. The slice is shared
// and must not be modified.
func (v *Strata) Ranges() []StratumRange { return v.ranges }

// Row returns row i of the sample relation as published.
func (v *Strata) Row(i int) engine.Row { return v.batch.Rows()[i] }

// plan returns the slotPlan of projection mask, building it on first
// use. Concurrent first callers wait for one build.
func (v *Strata) plan(mask uint32) *slotPlan {
	e := &v.plans[mask]
	e.once.Do(func() { e.p = v.buildPlan(mask) })
	return e.p
}

func (v *Strata) buildPlan(mask uint32) *slotPlan {
	p := &slotPlan{slot: make([]int32, len(v.ranges))}
	index := make(map[string]int32)
	for i := range v.ranges {
		r := &v.ranges[i]
		if r.Lo == r.Hi {
			p.slot[i] = -1
			continue
		}
		key := datacube.GroupID(r.Parts).Project(mask)
		j, ok := index[key]
		if !ok {
			j = int32(len(p.keys))
			index[key] = j
			p.keys = append(p.keys, key)
			p.first = append(p.first, int32(i))
		}
		p.slot[i] = j
	}
	return p
}
