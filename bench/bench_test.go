package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// small shrinks a workload to a 5k-row, 27-group table and a schedule
// that generates in milliseconds.
func small(wl workloadDef) workloadDef {
	wl.rows, wl.groups, wl.schedLen = 5000, 27, 1<<12
	return wl
}

func smallConfig(t *testing.T, wl workloadDef) runConfig {
	t.Helper()
	return runConfig{wl: small(wl), seed: 1, seconds: 1, clients: 1, outDir: t.TempDir(), window: 300 * time.Millisecond}
}

// TestSmokeEveryWorkload runs every workload end to end and traced on
// a tiny table, so that the harness keeps compiling and running against
// the layers it calls. It checks outputs, not speed.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			rc := smallConfig(t, wl)
			res, err := runEndToEnd(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Fatalf("end to end: correct=%t attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("end to end: %s = %v, want a positive number", d.Name, v)
				}
			}
			tres, err := runTraced(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			if tres.Failed != 0 || !tres.Correct {
				t.Fatalf("traced: correct=%t failed=%d notes=%v", tres.Correct, tres.Failed, tres.Notes)
			}
			for _, d := range perLayer {
				if _, ok := tres.Metrics[d.Name]; !ok {
					t.Errorf("traced: %s is missing", d.Name)
				}
			}
			if v := tres.Metrics[wl.primary+"_p50_ms"].Value; !(v > 0) {
				t.Errorf("traced: %s_p50_ms = %v", wl.primary, v)
			}
			if len(tres.Stages) == 0 {
				t.Error("traced: no stage table")
			}
			for name, holds := range tres.Predictions {
				// A 75 ms pass is too few ops to pin a hit fraction down.
				if !holds && !strings.HasPrefix(name, "cache_hit_frac outside") {
					t.Errorf("prediction violated: %s", name)
				}
			}
			// The last line a driver reads carries exactly the contract's keys.
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("contract line has keys %v", reflect.ValueOf(line).MapKeys())
			}
		})
	}
}

// TestScheduleDeterministic: one seed, one byte-identical schedule.
func TestScheduleDeterministic(t *testing.T) {
	for _, wl := range workloads {
		wl := small(wl)
		fp := func(seed int64) string {
			rel, err := generateTable(wl)
			if err != nil {
				t.Fatal(err)
			}
			s, err := buildSchedule(wl, seed, 2, rel)
			if err != nil {
				t.Fatal(err)
			}
			for ci, ops := range s.Clients {
				if len(ops) != wl.schedLen {
					t.Fatalf("%s client %d: %d ops, want %d", wl.Name, ci, len(ops), wl.schedLen)
				}
			}
			h, err := s.fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		if a, b := fp(7), fp(7); a != b {
			t.Errorf("%s: seed 7 gave schedules %s and %s", wl.Name, a, b)
		}
		if a, b := fp(7), fp(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", wl.Name)
		}
	}
}

// TestTailRule: a percentile is reported only with at least ten
// samples beyond it; otherwise the next lower one of the ladder is.
func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n        int
		declared float64
		wantPct  float64
		wantVal  float64
	}{
		{2000, 99, 99, 1980}, // 20 beyond
		{1000, 99, 99, 990},  // exactly 10 beyond
		{999, 99, 95, 950},   // 9 beyond p99, 49 beyond p95
		{200, 99, 95, 190},   // exactly 10 beyond p95
		{199, 99, 90, 180},   // 9 beyond p95
		{100, 99, 90, 90},
		{99, 99, 75, 75},
		{30, 99, 50, 15}, // nothing above the median qualifies
		{5, 99, 50, 3},
		{2000, 95, 95, 1900}, // never above the declared percentile
		{150, 95, 90, 135},
	}
	for _, c := range cases {
		pct, val := tailOf(ramp(c.n), c.declared)
		if pct != c.wantPct || val != c.wantVal {
			t.Errorf("n=%d declared p%g: got p%g = %g, want p%g = %g", c.n, c.declared, pct, val, c.wantPct, c.wantVal)
		}
		if c.wantPct > 50 && beyond(c.n, pct) < minBeyond {
			t.Errorf("n=%d: p%g reported with %d samples beyond it", c.n, pct, beyond(c.n, pct))
		}
	}
}

// TestQuartileSpread pins the spread to the driver's rule, Python's
// statistics.quantiles(v, n=4) with the default exclusive method.
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	// quantiles([2, 4, 4, 5, 6, 7, 8, 9, 10, 12], n=4) == [4.0, 6.5, 9.25]
	v = []float64{2, 4, 4, 5, 6, 7, 8, 9, 10, 12}
	if got, want := quartileSpread(v), (9.25-4.0)/6.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Error("one value has no spread")
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
//
//	op 0: root 100us > facade 80us > { leaf a 30us, leaf b 20us }
//	op 1: root 200us > fanout 150us > { leg 60us || leg 100us, merge 10us }
func TestSelfTimes(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Kind: "sql:g2", Name: "root", Start: 0, End: us(100)},
		{ID: 1, Parent: 0, Op: 0, Kind: "sql:g2", Name: "facade", Start: 0, End: us(80)},
		{ID: 2, Parent: 1, Op: 0, Kind: "sql:g2", Name: "a", Start: 0, End: us(30)},
		{ID: 3, Parent: 1, Op: 0, Kind: "sql:g2", Name: "b", Start: 0, End: us(20)},
		{ID: 4, Parent: -1, Op: 1, Kind: "est:g3", Name: "root", Start: 0, End: us(200)},
		{ID: 5, Parent: 4, Op: 1, Kind: "est:g3", Name: "fanout", Start: 0, End: us(150)},
		{ID: 6, Parent: 5, Op: 1, Kind: "est:g3", Name: "leg", Start: 0, End: us(60), Parallel: true},
		{ID: 7, Parent: 5, Op: 1, Kind: "est:g3", Name: "leg", Start: 0, End: us(100), Parallel: true},
		{ID: 8, Parent: 5, Op: 1, Kind: "est:g3", Name: "merge", Start: 0, End: us(10)},
	}
	want := []float64{20, 30, 30, 20, 50, 40, 60, 100, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	rows := stageTable(spans)
	if got := selfSumUS(rows, "sql:g2"); got != 100 {
		t.Errorf("sql:g2 self times sum to %v, want the root's 100", got)
	}
	// Parallel legs cover only the slowest of them, so the two medians
	// (80 for the legs, not 160) leave the kind's sum below the root.
	leg, ok := stageOf(rows, "est:g3", "leg")
	if !ok || leg.N != 2 || leg.MedianUS != 80 || leg.Depth != 2 {
		t.Errorf("leg row %+v", leg)
	}
	fan, _ := stageOf(rows, "est:g3", "fanout")
	if fan.SelfUS != 40 || fan.Depth != 1 {
		t.Errorf("fanout row %+v, want self 150 - max(60,100) - 10 = 40", fan)
	}
}

func stageOf(rows []stageRow, kind, name string) (stageRow, bool) {
	for _, r := range rows {
		if r.Kind == kind && r.Name == name {
			return r, true
		}
	}
	return stageRow{}, false
}

func reportWith(ops, p50, tail, setup, opsSpread float64, failed int) *report {
	r := newReport(1, 12, 2)
	for _, wl := range workloads {
		r.Workloads[wl.Name] = &workloadReport{EndToEnd: &result{
			Workload: wl.Name, Correct: failed == 0, Attempted: 1000, Failed: failed,
			Metrics: map[string]metricValue{
				"ops_per_s": {Value: ops, Unit: "1/s", Spread: opsSpread},
				"p50_ms":    {Value: p50, Unit: "ms"},
				"tail_ms":   {Value: tail, Unit: "ms"},
				"setup_s":   {Value: setup, Unit: "s"},
			},
		}}
	}
	return r
}

func TestCompare(t *testing.T) {
	verdicts := func(rows []compareRow, metric string) string {
		for _, r := range rows {
			if r.Metric == metric {
				return r.Verdict
			}
		}
		return ""
	}
	base := reportWith(1000, 1.0, 5.0, 2.0, 0.02, 0)

	rows, regressed := compareReports(base, reportWith(850, 1.15, 6.0, 2.4, 0.02, 0))
	if regressed {
		t.Errorf("changes inside every bound were called a regression: %+v", rows)
	}
	if len(rows) != len(workloads)*(len(endToEnd)+1) {
		t.Errorf("%d rows, want one per workload x (end-to-end metric + failed_frac)", len(rows))
	}

	rows, regressed = compareReports(base, reportWith(780, 1.0, 5.0, 2.0, 0.02, 0))
	if !regressed || verdicts(rows, "ops_per_s") != verdictRegression {
		t.Errorf("ops_per_s down 22%% against a 20%% bound: %+v", rows[0])
	}
	_, regressed = compareReports(base, reportWith(1200, 0.8, 4.0, 1.5, 0.02, 0))
	if regressed {
		t.Error("an improvement was called a regression")
	}
	rows, regressed = compareReports(base, reportWith(1000, 1.0, 6.5, 2.0, 0.02, 0))
	if !regressed || verdicts(rows, "tail_ms") != verdictRegression {
		t.Error("tail_ms up 30% against a 25% bound passed")
	}
	rows, regressed = compareReports(base, reportWith(990, 1.0, 5.0, 2.0, 0.24, 0))
	if regressed || verdicts(rows, "ops_per_s") != verdictUnresolved {
		t.Errorf("a spread wider than the bound must read unresolved, not %q", verdicts(rows, "ops_per_s"))
	}
	rows, regressed = compareReports(base, reportWith(1000, 1.0, 5.0, 2.0, 0.02, 3))
	if !regressed || verdicts(rows, "failed_frac") != verdictRegression {
		t.Error("a higher failed_frac passed")
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, equal to the spec the program reports by.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/: ", err)
	}
	var file struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n spec %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %+v\n spec %+v", file.PerLayer, perLayer)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the spec", len(file.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if file.Workloads[i].Name != wl.Name || file.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: file %q, spec %q", i, file.Workloads[i].Name, wl.Name)
		}
		if len(wl.Why) > 200 {
			t.Errorf("%s: why has %d characters", wl.Name, len(wl.Why))
		}
	}
	setup := endToEnd[len(endToEnd)-1]
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup.Bound {
			t.Errorf("%s: bound %v; want (0, 0.25] and setup_s's the largest", d.Name, d.Bound)
		}
	}
}

// TestRefusesTooManyClients: more clients than cores would measure the
// load generator's own queueing.
func TestRefusesTooManyClients(t *testing.T) {
	if err := run([]string{"-workload", "sql_scan", "-clients", "4096"}); err == nil {
		t.Error("-clients 4096 was accepted")
	}
}
