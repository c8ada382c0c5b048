package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/approxdb/congress/internal/engine"
)

// streamRow builds a 3-column row (a, b, v) for maintainer streams.
func streamRow(a, b string, v int64) engine.Row {
	return engine.Row{engine.NewString(a), engine.NewString(b), engine.NewInt(v)}
}

func streamGrouping(t testing.TB) *Grouping {
	t.Helper()
	schema := engine.MustSchema(
		engine.Column{Name: "a", Kind: engine.KindString},
		engine.Column{Name: "b", Kind: engine.KindString},
		engine.Column{Name: "v", Kind: engine.KindInt},
	)
	return MustGrouping(schema, []string{"a", "b"})
}

func TestHouseMaintainerBasics(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(1))
	m, err := NewHouseMaintainer(g, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		m.Insert(streamRow("a"+strconv.FormatInt(i%3, 10), "b", i))
	}
	if m.SampledCount() != 50 {
		t.Fatalf("sampled %d, want 50", m.SampledCount())
	}
	if m.SeenCount() != 1000 {
		t.Fatalf("seen %d", m.SeenCount())
	}
	st, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 50 || st.Population() != 1000 {
		t.Fatalf("snapshot size=%d pop=%d", st.Size(), st.Population())
	}
	if st.NumStrata() != 3 {
		t.Fatalf("strata %d, want 3", st.NumStrata())
	}
}

func TestHouseMaintainerValidation(t *testing.T) {
	g := streamGrouping(t)
	if _, err := NewHouseMaintainer(g, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestSenateMaintainerEqualizes(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(2))
	m, err := NewSenateMaintainer(g, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Highly skewed stream: one huge group, three small ones.
	for i := int64(0); i < 20000; i++ {
		m.Insert(streamRow("big", "x", i))
	}
	for i := int64(0); i < 100; i++ {
		m.Insert(streamRow("s1", "x", i))
		m.Insert(streamRow("s2", "x", i))
		m.Insert(streamRow("s3", "x", i))
	}
	if m.SampledCount() > 100 {
		t.Fatalf("sample size %d exceeds budget", m.SampledCount())
	}
	st, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st.Each(func(s *sampleStratum) {
		if len(s.Items) != 25 {
			t.Errorf("stratum %q has %d tuples, want 25 (= X/m)", s.Key, len(s.Items))
		}
	})
}

func TestSenateMaintainerShrinksOnNewGroups(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(3))
	m, _ := NewSenateMaintainer(g, 60, rng)
	// First a single group fills the budget.
	for i := int64(0); i < 500; i++ {
		m.Insert(streamRow("g0", "x", i))
	}
	if m.SampledCount() != 60 {
		t.Fatalf("single group should hold full budget, got %d", m.SampledCount())
	}
	// Then five more groups arrive.
	for gi := 1; gi <= 5; gi++ {
		for i := int64(0); i < 500; i++ {
			m.Insert(streamRow("g"+strconv.Itoa(gi), "x", i))
		}
	}
	if m.SampledCount() > 60 {
		t.Fatalf("budget exceeded after growth: %d", m.SampledCount())
	}
	st, _ := m.Snapshot()
	st.Each(func(s *sampleStratum) {
		if len(s.Items) != 10 {
			t.Errorf("stratum %q has %d tuples, want 10", s.Key, len(s.Items))
		}
	})
}

func TestSenateMaintainerValidation(t *testing.T) {
	g := streamGrouping(t)
	if _, err := NewSenateMaintainer(g, -1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestBasicCongressMaintainerSmallGroupFullyHeld(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(4))
	m, err := NewBasicCongressMaintainer(g, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Large group of 10000 and a small group of 20 (< Y/m = 50): the
	// small group must be completely represented (reservoir + delta).
	for i := int64(0); i < 10000; i++ {
		m.Insert(streamRow("big", "x", i))
	}
	for i := int64(0); i < 20; i++ {
		m.Insert(streamRow("small", "x", i))
	}
	st, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	small, ok := st.Get(rowKey("small", "x"))
	if !ok {
		t.Fatal("small group missing from snapshot")
	}
	if len(small.Items) != 20 {
		t.Errorf("small group holds %d of 20 tuples; Basic Congress must keep all of a below-target group", len(small.Items))
	}
	big, _ := st.Get(rowKey("big", "x"))
	if len(big.Items) < 40 {
		t.Errorf("big group under-sampled: %d", len(big.Items))
	}
}

func TestBasicCongressMaintainerBudgetDiscipline(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(5))
	m, _ := NewBasicCongressMaintainer(g, 200, rng)
	for gi := 0; gi < 10; gi++ {
		for i := int64(0); i < 1000; i++ {
			m.Insert(streamRow("g"+strconv.Itoa(gi), "x", i))
		}
	}
	m.Compact()
	// Y + per-group deltas: with all groups equal and large, deltas
	// should be nearly empty; allow the documented Basic Congress
	// inflation bound X' < 2Y.
	if m.SampledCount() > 400 {
		t.Fatalf("sample size %d exceeds 2Y bound", m.SampledCount())
	}
	st, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Every group's holding must be at least its reservoir share and at
	// least close to Y/m for small-share groups.
	st.Each(func(s *sampleStratum) {
		if len(s.Items) < 10 {
			t.Errorf("stratum %q has only %d tuples", s.Key, len(s.Items))
		}
	})
}

// TestBasicCongressMaintainerUniformity checks the Theorem 6.1 claim:
// within a group, every tuple is equally likely to be in the final
// sample (reservoir + delta).
func TestBasicCongressMaintainerUniformity(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(6))
	const (
		trials  = 1500
		bigN    = 400
		smallN  = 30
		baseCap = 40
	)
	counts := make(map[int64]int)
	for trial := 0; trial < trials; trial++ {
		m, _ := NewBasicCongressMaintainer(g, baseCap, rng)
		// Interleave two groups so evictions cross groups regularly.
		bi, si := int64(0), int64(0)
		for i := 0; i < bigN+smallN; i++ {
			if i%((bigN+smallN)/smallN) == 0 && si < smallN {
				m.Insert(streamRow("small", "x", si))
				si++
			} else if bi < bigN {
				m.Insert(streamRow("big", "x", bi))
				bi++
			}
		}
		st, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		big, _ := st.Get(rowKey("big", "x"))
		for _, row := range big.Items {
			counts[row[2].I]++
		}
	}
	// Each of the bigN tuples should appear equally often.
	var mean float64
	for i := int64(0); i < bigN; i++ {
		mean += float64(counts[i])
	}
	mean /= bigN
	for i := int64(0); i < bigN; i++ {
		if math.Abs(float64(counts[i])-mean) > 6*math.Sqrt(mean) {
			t.Errorf("tuple %d included %d times, mean %.1f — delta sample not uniform", i, counts[i], mean)
		}
	}
}

func TestCongressMaintainerExpectation(t *testing.T) {
	// The Eq. 8 maintainer's expected stratum size equals the
	// pre-scaling Congress target max_T s_{g,T}(Y). Stream a fixed
	// distribution many times and compare.
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(7))
	dist := map[[2]string]int{
		{"a1", "b1"}: 3000, {"a1", "b2"}: 3000, {"a1", "b3"}: 1500, {"a2", "b3"}: 2500,
	}
	const Y = 100
	const trials = 60
	sizes := make(map[string]float64)
	for trial := 0; trial < trials; trial++ {
		m, err := NewCongressMaintainer(g, Y, rng)
		if err != nil {
			t.Fatal(err)
		}
		v := int64(0)
		// Round-robin interleave to exercise probability decay.
		remaining := map[[2]string]int{}
		for k, n := range dist {
			remaining[k] = n
		}
		for done := false; !done; {
			done = true
			for _, k := range [][2]string{{"a1", "b1"}, {"a1", "b2"}, {"a1", "b3"}, {"a2", "b3"}} {
				if remaining[k] > 0 {
					// Insert a burst to keep the test fast.
					burst := 25
					if remaining[k] < burst {
						burst = remaining[k]
					}
					for j := 0; j < burst; j++ {
						m.Insert(streamRow(k[0], k[1], v))
						v++
					}
					remaining[k] -= burst
					done = false
				}
			}
		}
		st, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		st.Each(func(s *sampleStratum) {
			sizes[s.Key] += float64(len(s.Items))
		})
	}
	// Figure 5 pre-scaling Congress targets with X=100: 33.3, 33.3, 25, 50.
	want := map[string]float64{
		rowKey("a1", "b1"): 100.0 / 3,
		rowKey("a1", "b2"): 100.0 / 3,
		rowKey("a1", "b3"): 25,
		rowKey("a2", "b3"): 50,
	}
	for k, w := range want {
		got := sizes[k] / trials
		// Standard error of the mean over trials is about sqrt(w)/sqrt(trials);
		// allow a generous 15% + 3 tuples.
		if math.Abs(got-w) > 0.15*w+3 {
			t.Errorf("stratum %q mean size %.2f, want ~%.2f", k, got, w)
		}
	}
}

func TestCongressMaintainerSubsampleTo(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(8))
	m, _ := NewCongressMaintainer(g, 200, rng)
	for i := int64(0); i < 5000; i++ {
		m.Insert(streamRow("a"+strconv.FormatInt(i%5, 10), "b"+strconv.FormatInt(i%2, 10), i))
	}
	m.SubsampleTo(100)
	if m.SampledCount() > 100 {
		t.Fatalf("subsample left %d tuples", m.SampledCount())
	}
	st, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != m.SampledCount() {
		t.Fatalf("snapshot size %d != sampled %d", st.Size(), m.SampledCount())
	}
	// No-op when already below target.
	before := m.SampledCount()
	m.SubsampleTo(10000)
	if m.SampledCount() != before {
		t.Error("over-large subsample changed the sample")
	}
}

func TestCongressMaintainerValidation(t *testing.T) {
	g := streamGrouping(t)
	if _, err := NewCongressMaintainer(g, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero Y accepted")
	}
}

func TestMaintainerInterfaceCompliance(t *testing.T) {
	g := streamGrouping(t)
	rng := rand.New(rand.NewSource(9))
	hm, _ := NewHouseMaintainer(g, 10, rng)
	sm, _ := NewSenateMaintainer(g, 10, rng)
	bm, _ := NewBasicCongressMaintainer(g, 10, rng)
	cm, _ := NewCongressMaintainer(g, 10, rng)
	for _, m := range []Maintainer{hm, sm, bm, cm} {
		for i := int64(0); i < 100; i++ {
			m.Insert(streamRow("a"+strconv.FormatInt(i%2, 10), "b", i))
		}
		if m.SeenCount() != 100 {
			t.Errorf("%T seen %d", m, m.SeenCount())
		}
		st, err := m.Snapshot()
		if err != nil {
			t.Errorf("%T snapshot: %v", m, err)
			continue
		}
		if st.Population() != 100 {
			t.Errorf("%T population %d", m, st.Population())
		}
		if err := st.Validate(); err != nil {
			t.Errorf("%T snapshot invalid: %v", m, err)
		}
	}
}

// TestMaintainerMatchesBatchBuild compares a maintainer-grown Senate
// sample with a batch-built one: per-stratum sizes must agree.
func TestMaintainerMatchesBatchBuild(t *testing.T) {
	rel, g := buildRelation(t, map[[2]string]int{
		{"a1", "b1"}: 800, {"a1", "b2"}: 150, {"a2", "b1"}: 50,
	})
	rng := rand.New(rand.NewSource(10))
	batch, _, err := buildSample(rel, g, Senate, 90, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewSenateMaintainer(g, 90, rng)
	for _, row := range rel.Rows() {
		m.Insert(row)
	}
	inc, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	batch.Each(func(s *sampleStratum) {
		is, ok := inc.Get(s.Key)
		if !ok {
			t.Errorf("stratum %q missing from incremental sample", s.Key)
			return
		}
		if len(is.Items) != len(s.Items) {
			t.Errorf("stratum %q: incremental %d vs batch %d", s.Key, len(is.Items), len(s.Items))
		}
	})
}
