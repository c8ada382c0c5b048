package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// report is bench/out/report.json: one full set of runs.
type report struct {
	Scenario   string `json:"scenario"`
	GitRev     string `json:"git_rev"`
	HostCores  int    `json:"host_cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Clients    int    `json:"clients"`
	// Workloads holds, per workload, the end-to-end run (tracing off)
	// and, when the set included it, the traced run.
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	EndToEnd *result `json:"end_to_end"`
	Traced   *result `json:"traced,omitempty"`
}

const scenario = "congressd in-process on loopback, closed loop"

func newReport(seed int64, seconds, clients int) *report {
	return &report{
		Scenario: scenario, GitRev: gitRev(), HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: seed, Seconds: seconds, Clients: clients,
		Workloads: map[string]*workloadReport{},
	}
}

// gitRev is the revision the binary was built from, as stamped by the
// go tool; a checkout that is not a git repository has none.
func gitRev() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func (r *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printResult writes one run's metrics by name and unit, then its
// detail.
func printResult(w io.Writer, res *result) {
	mode, defs := "end-to-end, tracing off", endToEnd
	if res.Traced {
		mode, defs = "traced, one client", perLayer
	}
	fmt.Fprintf(w, "%s  seed %d  %d s  %d clients  (%s)\n", res.Workload, res.Seed, res.Seconds, res.Clients, mode)
	zeros := 0
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		if res.Traced && m.Value == 0 {
			zeros++
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-6s", d.Name, m.Value, m.Unit)
		if m.Spread > 0 {
			fmt.Fprintf(w, " spread %.1f%%", 100*m.Spread)
		}
		fmt.Fprintln(w)
	}
	if zeros > 0 {
		fmt.Fprintf(w, "  (%d per-layer metrics are 0: this workload does not enter their layer)\n", zeros)
	}
	if ps := res.Pass; ps != nil {
		kinds := make([]string, 0, len(ps.Kinds))
		for k := range ps.Kinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			ks := ps.Kinds[k]
			fmt.Fprintf(w, "  %s_p50_ms %.4f  %s_p%g_ms %.4f  max %.2f ms  n=%d\n", k, ks.P50MS, k, ks.TailPct, ks.TailMS, ks.MaxMS, ks.N)
		}
		fmt.Fprintf(w, "  failed_frac %.6f (%d of %d, %d shed)  cache_hit_frac %.4f\n",
			res.failedFrac(), res.Failed, res.Attempted, ps.Shed, ps.CacheHitFrac)
	}
	if res.Lag != nil {
		fmt.Fprintf(w, "  follower lag over %d polls: p50 %.0f records, max %.0f records\n", res.Lag.Polls, res.Lag.P50Records, res.Lag.MaxRecords)
	}
	if rec := res.Recovery; rec != nil {
		fmt.Fprintf(w, "  follower caught up in %.3f s; crash copy recovered %d of %d rows (%d acknowledged) in %.3f s\n",
			rec.CatchupS, rec.RecoveredRows, rec.WantRows, rec.AckedRows, rec.RecoverS)
	}
	if len(res.Stages) > 0 {
		printStages(w, res.Stages, res.TracedKinds)
	}
	names := make([]string, 0, len(res.Predictions))
	for n := range res.Predictions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		verdict := "holds"
		if !res.Predictions[n] {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "  prediction: %s: %s\n", n, verdict)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  correct %t  attempted %d  failed %d  schedule %.12s\n", res.Correct, res.Attempted, res.Failed, res.Schedule)
}

// contractLine is the driver's last line of standard output.
func contractLine(res *result) string {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{res.Metrics[d.Name].Value, d.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// ----- compare -----

// verdicts of one workload x metric row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

type compareRow struct {
	Workload, Metric, Unit string
	Old, New, Bound        float64
	Change                 float64 // signed share of old; positive is worse
	Spread                 float64
	Verdict                string
}

// compareReports applies every end-to-end metric's bound to every
// workload both reports hold, and failed_frac's rule (it must not
// rise). regressed reports whether any row is a regression.
func compareReports(old, cur *report) (rows []compareRow, regressed bool) {
	for _, wl := range workloads {
		o, n := old.Workloads[wl.Name], cur.Workloads[wl.Name]
		if o == nil || n == nil || o.EndToEnd == nil || n.EndToEnd == nil {
			continue
		}
		for _, d := range endToEnd {
			om, nm := o.EndToEnd.Metrics[d.Name], n.EndToEnd.Metrics[d.Name]
			row := compareRow{Workload: wl.Name, Metric: d.Name, Unit: d.Unit, Old: om.Value, New: nm.Value, Bound: d.Bound, Spread: max(om.Spread, nm.Spread), Verdict: verdictOK}
			if om.Value != 0 {
				row.Change = (nm.Value - om.Value) / om.Value
				if d.Better == "higher" {
					row.Change = -row.Change
				}
			}
			switch {
			case row.Change > d.Bound:
				row.Verdict = verdictRegression
				regressed = true
			case row.Spread > d.Bound:
				// The run-to-run noise is wider than the bound: neither
				// "unchanged" nor "regressed" can be read off two runs.
				row.Verdict = verdictUnresolved
			}
			rows = append(rows, row)
		}
		of, nf := o.EndToEnd.failedFrac(), n.EndToEnd.failedFrac()
		row := compareRow{Workload: wl.Name, Metric: "failed_frac", Unit: "frac", Old: of, New: nf, Change: nf - of, Verdict: verdictOK}
		if nf > of || (o.EndToEnd.Correct && !n.EndToEnd.Correct) {
			row.Verdict = verdictRegression
			regressed = true
		}
		rows = append(rows, row)
	}
	return rows, regressed
}

func printCompare(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-15s %-12s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-12s %14.4f %14.4f %8.1f%% %6.0f%% %7.1f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, 100*r.Change, 100*r.Bound, 100*r.Spread, r.Verdict)
	}
}
