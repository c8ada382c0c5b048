// Command congress is a demonstration driver for the congressional
// samples library: it generates a skewed TPC-D-style lineitem table,
// precomputes a synopsis under a chosen allocation strategy, then
// answers a query both exactly and approximately, reporting per-group
// errors and speedup.
//
// Usage:
//
//	congress [flags]
//
//	-rows N        table size (default 200000)
//	-groups N      number of groups (default 1000)
//	-skew Z        group-size Zipf parameter (default 0.86)
//	-space-pct P   synopsis size as %% of table (default 7)
//	-strategy S    house|senate|basic|congress (default congress)
//	-rewrite S     integrated|nested|normalized|keynormalized
//	-query SQL     query to run (default the paper's Q_g2)
//	-explain       print the rewritten SQL instead of executing
//	-seed N        RNG seed (default 1)
//	-workers N     worker goroutines for synopsis construction (default GOMAXPROCS)
//	-metrics       print the telemetry counters before exiting
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/aqua"
	"github.com/approxdb/congress/internal/core"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/metrics"
	"github.com/approxdb/congress/internal/rewrite"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "congress:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("congress", flag.ContinueOnError)
	rows := fs.Int("rows", 200_000, "table size")
	groups := fs.Int("groups", 1000, "number of groups")
	skew := fs.Float64("skew", 0.86, "group-size Zipf z")
	spacePct := fs.Float64("space-pct", 7, "synopsis size as % of table")
	strategyName := fs.String("strategy", "congress", "house|senate|basic|congress")
	rewriteName := fs.String("rewrite", "integrated", "integrated|nested|normalized|keynormalized")
	query := fs.String("query", workload.Qg2, "query to run")
	explain := fs.Bool("explain", false, "print the rewritten SQL instead of executing")
	seed := fs.Int64("seed", 1, "RNG seed")
	loadCSV := fs.String("load", "", "load the base table from a typed CSV instead of generating (see engine.WriteCSV format)")
	table := fs.String("table", "lineitem", "base table name when loading from CSV")
	groupCols := fs.String("group-cols", "", "comma-separated grouping columns (default: the TPC-D grouping attributes)")
	saveSample := fs.String("save-sample", "", "write the integrated sample relation to this CSV file")
	repl := fs.Bool("repl", false, "read queries from stdin; prefix a query with 'exact ' to bypass the synopsis")
	showAlloc := fs.Bool("show-allocation", false, "print the Figure 5-style space allocation table for the synopsis")
	workers := fs.Int("workers", core.DefaultWorkers(), "worker goroutines for synopsis construction (1 = serial)")
	showMetrics := fs.Bool("metrics", false, "print the telemetry counters before exiting")
	if err := fs.Parse(args); err != nil {
		return err
	}

	strategy, err := congress.ParseStrategy(*strategyName)
	if err != nil {
		return err
	}
	rw, err := congress.ParseRewriteStrategy(*rewriteName)
	if err != nil {
		return err
	}

	var rel *engine.Relation
	start := time.Now()
	if *loadCSV != "" {
		f, err := os.Open(*loadCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err = engine.ReadCSV(*table, f)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded %s: %d rows from %s in %v\n",
			*table, rel.NumRows(), *loadCSV, time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Fprintf(out, "generating lineitem: %d rows, %d groups, z=%.2f ...\n", *rows, *groups, *skew)
		var err error
		rel, err = tpcd.Generate(tpcd.Params{
			TableSize: *rows, NumGroups: *groups, GroupSkew: *skew, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  done in %v\n", time.Since(start).Round(time.Millisecond))
	}

	grouping := tpcd.GroupingAttrs
	if *groupCols != "" {
		grouping = strings.Split(*groupCols, ",")
		for i := range grouping {
			grouping[i] = strings.TrimSpace(grouping[i])
		}
	}

	cat := engine.NewCatalog()
	cat.Register(rel)
	a := aqua.New(cat)
	space := int(float64(rel.NumRows()) * *spacePct / 100)
	fmt.Fprintf(out, "building %s synopsis of %d tuples (%.1f%%) ...\n", strategy, space, *spacePct)
	start = time.Now()
	syn, err := a.CreateSynopsis(aqua.Config{
		Table:        rel.Name,
		GroupCols:    grouping,
		Strategy:     strategy,
		Space:        space,
		Rewrite:      rw,
		Seed:         *seed,
		BuildWorkers: *workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  done in %v\n\n", time.Since(start).Round(time.Millisecond))
	if *showMetrics {
		defer func() { fmt.Fprintf(out, "\n%s", a.Telemetry().Snapshot()) }()
	}

	if *saveSample != "" {
		sampleRel, ok := cat.Lookup(syn.Tables(rewrite.Integrated).Sample)
		if !ok {
			return fmt.Errorf("internal: sample relation missing")
		}
		f, err := os.Create(*saveSample)
		if err != nil {
			return err
		}
		if err := sampleRel.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "sample written to %s (%d tuples)\n", *saveSample, sampleRel.NumRows())
	}

	if *showAlloc {
		rows := syn.AllocationTable()
		fmt.Fprintf(out, "%-40s %10s %10s %10s %8s\n", "group", "population", "pre-scale", "target", "actual")
		limit := len(rows)
		if limit > 50 {
			limit = 50
		}
		for _, r := range rows[:limit] {
			fmt.Fprintf(out, "%-40s %10d %10.2f %10.2f %8d\n",
				strings.Join(r.Group, ","), r.Population, r.PreScale, r.Target, r.Actual)
		}
		if limit < len(rows) {
			fmt.Fprintf(out, "... (%d more groups)\n", len(rows)-limit)
		}
		fmt.Fprintf(out, "scale-down f = %.4f\n", syn.Allocation().ScaleDown)
		return nil
	}

	if *explain {
		sqlText, err := a.RewriteOnly(*query, rw)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, sqlText)
		return nil
	}

	if *repl {
		return runREPL(a, rw, os.Stdin, out)
	}

	start = time.Now()
	exact, err := a.Exact(*query)
	if err != nil {
		return err
	}
	exactTime := time.Since(start)

	start = time.Now()
	approx, err := a.AnswerWith(*query, rw)
	if err != nil {
		return err
	}
	approxTime := time.Since(start)

	fmt.Fprintf(out, "exact answer (%v):\n%s\n", exactTime.Round(time.Millisecond), exact)
	fmt.Fprintf(out, "approximate answer via %s rewriting (%v):\n%s\n", rw, approxTime.Round(time.Millisecond), approx)

	// Error metrics when the query is a plain group-by with a trailing
	// aggregate column.
	nGroup := len(exact.Columns) - 1
	if nGroup >= 0 && len(exact.Rows) > 0 {
		if ge, err := metrics.CompareAnswers(exact, approx, nGroup, nGroup); err == nil {
			fmt.Fprintf(out, "errors: mean %.2f%%  max %.2f%%  missing groups %d\n",
				ge.L1(), ge.LInf(), ge.MissingGroups)
		}
	}
	if approxTime > 0 {
		fmt.Fprintf(out, "speedup: %.1fx\n", float64(exactTime)/float64(approxTime))
	}
	return nil
}

// runREPL answers queries from in line by line. A leading "exact "
// bypasses the synopsis; "explain " prints the rewrite; "quit" exits.
func runREPL(a *aqua.Aqua, rw rewrite.Strategy, in io.Reader, out io.Writer) error {
	fmt.Fprintln(out, "congress> enter SQL (prefix 'exact ' or 'explain '; 'quit' to exit)")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for {
		fmt.Fprint(out, "congress> ")
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "--"):
			continue
		case line == "quit" || line == "exit":
			return nil
		case strings.HasPrefix(strings.ToLower(line), "exact "):
			res, err := a.Exact(line[len("exact "):])
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprint(out, res)
		case strings.HasPrefix(strings.ToLower(line), "explain "):
			sqlText, err := a.RewriteOnly(line[len("explain "):], rw)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintln(out, sqlText)
		default:
			start := time.Now()
			res, err := a.AnswerWith(line, rw)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprint(out, res)
			fmt.Fprintf(out, "(%v, approximate)\n", time.Since(start).Round(time.Millisecond))
		}
	}
}
