// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 7) plus the Figure 5 allocation example and the
// Figure 3/4 Aqua demonstration, printing paper-style tables.
//
// Usage:
//
//	experiments -run all|fig5|fig3|exp1|exp2|exp3|exp4 [-rows N] [-full]
//
// By default experiments run on a scaled-down table (200K rows) so the
// whole suite finishes in minutes; -full uses the paper's 1M-row
// default.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/approxdb/congress/internal/aqua"
	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/rewrite"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	which := fs.String("run", "all", "fig5|fig3|exp1|exp2|exp3|exp4|expm|expz|all")
	rows := fs.Int("rows", 200_000, "table size for the experiments")
	full := fs.Bool("full", false, "use the paper's full default parameters (1M rows)")
	seed := fs.Int64("seed", 1, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := workload.Params{TableSize: *rows, Seed: *seed}
	if *full {
		p.TableSize = workload.DefaultParams.TableSize
	}

	runners := map[string]func(io.Writer, workload.Params) error{
		"fig5": func(w io.Writer, _ workload.Params) error { return figure5(w) },
		"fig3": figure34,
		"exp1": experiment1,
		"exp2": experiment2,
		"exp3": experiment3,
		"exp4": experiment4,
		"expm": experimentM,
		"expz": experimentZ,
	}
	if *which == "all" {
		for _, name := range []string{"fig5", "fig3", "exp1", "exp2", "exp3", "exp4", "expm", "expz"} {
			if err := runners[name](out, p); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	r, ok := runners[*which]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *which)
	}
	return r(out, p)
}

// figure5 prints the paper's Figure 5 allocation table from the exact
// same example distribution.
func figure5(out io.Writer) error {
	fmt.Fprintln(out, "=== Figure 5: expected sample sizes for various techniques, X = 100 ===")
	cube := datacube.MustNew([]string{"A", "B"})
	groups := []struct {
		a, b string
		n    int
	}{
		{"a1", "b1", 3000}, {"a1", "b2", 3000}, {"a1", "b3", 1500}, {"a2", "b3", 2500},
	}
	for _, g := range groups {
		id := datacube.GroupID{g.a, g.b}
		for i := 0; i < g.n; i++ {
			if err := cube.Add(id); err != nil {
				return err
			}
		}
	}
	const X = 100
	house, _ := core.Allocate(core.House, cube, X)
	senate, _ := core.Allocate(core.Senate, cube, X)
	basic, _ := core.Allocate(core.BasicCongress, cube, X)
	congress, _ := core.Allocate(core.Congress, cube, X)

	fmt.Fprintf(out, "%-4s %-4s %8s %8s %10s %10s %10s %10s\n",
		"A", "B", "House", "Senate", "Basic(pre)", "Basic", "Cong(pre)", "Congress")
	for _, g := range groups {
		key := datacube.GroupID{g.a, g.b}.Key()
		fmt.Fprintf(out, "%-4s %-4s %8.1f %8.1f %10.1f %10.1f %10.1f %10.1f\n",
			g.a, g.b,
			house.Targets[key], senate.Targets[key],
			basic.PreScale[key], basic.Targets[key],
			congress.PreScale[key], congress.Targets[key])
	}
	fmt.Fprintf(out, "scale-down f: basic %.3f, congress %.3f\n\n", basic.ScaleDown, congress.ScaleDown)
	return nil
}

// figure34 reproduces the Figure 3/4 demonstration: TPC-D Query 1 on a
// skewed lineitem, answered exactly and from a 1%% uniform (House)
// sample with Aqua error bounds — exhibiting the poor accuracy on the
// smallest group that motivates congressional samples.
func figure34(out io.Writer, p workload.Params) error {
	fmt.Fprintln(out, "=== Figures 3 & 4: TPC-D Q1, exact vs 1% uniform sample with error bounds ===")
	rel, err := tpcd.Generate(tpcd.Params{
		TableSize: p.TableSize, NumGroups: 8, GroupSkew: 1.5, Seed: p.Seed,
	})
	if err != nil {
		return err
	}
	cat := engine.NewCatalog()
	cat.Register(rel)
	a := aqua.New(cat)
	if _, err := a.CreateSynopsis(aqua.Config{
		Table:            "lineitem",
		GroupCols:        tpcd.GroupingAttrs,
		Strategy:         core.House, // Figure 4 uses a uniform sample
		Space:            p.TableSize / 100,
		WithErrorColumns: true,
		Seed:             p.Seed,
	}); err != nil {
		return err
	}
	q := `select l_returnflag, l_linestatus, sum(l_quantity)
from lineitem
where l_shipdate <= '1998-09-01'
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus`

	exact, err := a.Exact(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "exact answer:\n%s\n", exact)
	approx, err := a.Answer(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "approximate answer (90%% confidence half-widths in error1):\n%s\n", approx)
	return nil
}

func experiment1(out io.Writer, p workload.Params) error {
	p.Skew = 1.5 // the paper discusses the skewed case
	fmt.Fprintf(out, "=== Expt 1 (Figures 14-16): accuracy by strategy, T=%d, SP=7%%, z=%.1f ===\n", withDefaults(p).TableSize, p.Skew)
	start := time.Now()
	qg0, qg3, qg2, err := workload.Experiment1(p)
	if err != nil {
		return err
	}
	printAccuracy(out, "Figure 14 (Q_g0, no group-by)", qg0)
	printAccuracy(out, "Figure 15 (Q_g3, three group-bys)", qg3)
	printAccuracy(out, "Figure 16 (Q_g2, two group-bys)", qg2)
	fmt.Fprintf(out, "(elapsed %v)\n\n", time.Since(start).Round(time.Second))
	return nil
}

func experiment2(out io.Writer, p workload.Params) error {
	p.Skew = 0.86
	pcts := []float64{1, 2, 5, 7, 10, 20, 50, 75}
	fmt.Fprintf(out, "=== Expt 2 (Figure 17): Q_g2 error vs sample size, z=0.86 ===\n")
	points, err := workload.Experiment2(p, pcts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%8s", "SP%")
	for _, s := range core.Strategies {
		fmt.Fprintf(out, " %14s", s)
	}
	fmt.Fprintln(out)
	for _, pt := range points {
		fmt.Fprintf(out, "%8.0f", pt.SamplePct)
		for _, s := range core.Strategies {
			fmt.Fprintf(out, " %13.2f%%", meanFor(pt.Rows, s))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out)
	return nil
}

func experiment3(out io.Writer, p workload.Params) error {
	fmt.Fprintf(out, "=== Expt 3 (Table 3): rewrite strategy time vs sample size, NG=1000 ===\n")
	points, err := workload.Experiment3(p, []float64{1, 5, 10})
	if err != nil {
		return err
	}
	printTimings(out, points, true)
	return nil
}

func experiment4(out io.Writer, p workload.Params) error {
	fmt.Fprintf(out, "=== Expt 4 (Figure 18): rewrite strategy time vs group count, SP=7%% ===\n")
	counts := []int{10, 100, 1000, 10000}
	points, err := workload.Experiment4(p, counts)
	if err != nil {
		return err
	}
	printTimings(out, points, false)
	return nil
}

// experimentM is this reproduction's maintenance-drift experiment (no
// figure in the paper; it quantifies the Section 6 claim that
// incremental maintenance keeps answers accurate as the data drifts).
func experimentM(out io.Writer, p workload.Params) error {
	fmt.Fprintf(out, "=== Expt M (Section 6): Q_g2 error under distribution drift ===\n")
	rows, err := workload.MaintenanceExperiment(p, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%6s %10s %12s %14s %14s\n", "phase", "inserted", "stale", "maintained-Eq8", "maintained-Δ")
	for _, r := range rows {
		fmt.Fprintf(out, "%6d %10d %11.2f%% %13.2f%% %13.2f%%\n",
			r.Phase, r.InsertedRows, r.StaleErr, r.Eq8Err, r.DeltaErr)
	}
	fmt.Fprintln(out)
	return nil
}

// experimentZ sweeps the group-size skew (Table 1's z range), showing
// the Section 7.2.1 observation that all strategies coincide at z=0 and
// diverge as skew grows.
func experimentZ(out io.Writer, p workload.Params) error {
	fmt.Fprintf(out, "=== Expt Z (Table 1 z range): Q_g3 error vs group-size skew ===\n")
	points, err := workload.ExperimentZ(p, []float64{0, 0.5, 0.86, 1.2, 1.5})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%8s", "z")
	for _, s := range core.Strategies {
		fmt.Fprintf(out, " %14s", s)
	}
	fmt.Fprintln(out)
	for _, pt := range points {
		fmt.Fprintf(out, "%8.2f", pt.Skew)
		for _, s := range core.Strategies {
			fmt.Fprintf(out, " %13.2f%%", meanFor(pt.Rows, s))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out)
	return nil
}

func printAccuracy(out io.Writer, title string, rows []workload.AccuracyRow) {
	fmt.Fprintf(out, "%s\n%-16s %12s %12s %8s\n", title, "Strategy", "Mean err", "Max err", "Missing")
	for _, r := range rows {
		fmt.Fprintf(out, "%-16s %11.2f%% %11.2f%% %8d\n", r.Strategy, r.MeanPct, r.MaxPct, r.Missing)
	}
	fmt.Fprintln(out)
}

func printTimings(out io.Writer, points []*workload.TimingPoint, bySample bool) {
	header := "NG"
	if bySample {
		header = "SP%"
	}
	fmt.Fprintf(out, "%8s %12s", header, "exact")
	for _, s := range rewrite.Strategies {
		fmt.Fprintf(out, " %18s", s)
	}
	fmt.Fprintln(out)
	for _, pt := range points {
		if bySample {
			fmt.Fprintf(out, "%8.0f", pt.SamplePct)
		} else {
			fmt.Fprintf(out, "%8d", pt.NumGroups)
		}
		fmt.Fprintf(out, " %12s", pt.Exact.Round(time.Microsecond))
		for _, rt := range pt.Rewrites {
			fmt.Fprintf(out, " %18s", rt.Elapsed.Round(time.Microsecond))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out)
}

func meanFor(rows []workload.AccuracyRow, s core.Strategy) float64 {
	for _, r := range rows {
		if r.Strategy == s {
			return r.MeanPct
		}
	}
	return -1
}

// withDefaults mirrors workload's unexported defaulting for display.
func withDefaults(p workload.Params) workload.Params {
	if p.TableSize == 0 {
		p.TableSize = workload.DefaultParams.TableSize
	}
	return p
}
