// Command bench is congressd's one benchmark: four workloads, each on
// its own in-process topology, measured end to end with tracing off and
// layer by layer in a separate traced pass. See README.md.
//
// The driver's form, one run of one workload:
//
//	bash bench/run.sh --workload sql_scan --seed 1 --seconds 12 --trace 0
//
// A full set (every workload, end to end and traced) that prints every
// metric and writes out/report.json, and the two report tools:
//
//	bash bench/run.sh
//	bash bench/run.sh -compare old.json new.json
//	bash bench/run.sh -selfcheck
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errRegression = errors.New("regression: a metric got worse by more than its bound, or more ops failed")

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload only and end with the driver's JSON line (default: a full set of all four)")
	seed := fs.Int64("seed", 1, "seed of every client's op schedule and request bodies (the table is fixed)")
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "with -workload: 0 measures end to end with tracing off, 1 runs the traced pass")
	clients := fs.Int("clients", min(2, runtime.NumCPU()), "closed-loop clients, one connection each")
	outDir := fs.String("out", "out", "directory for report.json, traces and data directories")
	compare := fs.Bool("compare", false, "compare two reports: -compare old.json new.json")
	selfcheck := fs.Bool("selfcheck", false, "run two end-to-end sets back to back and compare them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two report files: old.json new.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	// The load generator shares the host with the servers; more clients
	// than cores would measure its own queueing.
	if *clients < 1 || *clients > runtime.NumCPU() {
		return fmt.Errorf("-clients %d: want 1 to %d (the host's cores)", *clients, runtime.NumCPU())
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %d: want 1 to 60", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rc := runConfig{seed: *seed, seconds: *seconds, clients: *clients, outDir: *outDir, window: time.Duration(*seconds) * time.Second}

	switch {
	case *selfcheck:
		return selfCheck(ctx, rc)
	case *workload == "":
		rep, err := runSet(ctx, rc, true)
		if err != nil {
			return err
		}
		path := filepath.Join(*outDir, "report.json")
		if err := rep.write(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	wl, ok := workloadByName(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	rc.wl = wl
	run := runEndToEnd
	if *trace == 1 {
		run = runTraced
	}
	res, err := run(ctx, rc)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	fmt.Println(contractLine(res))
	return nil
}

// runSet runs every workload once end to end and, if withTrace, once
// traced, printing each result as it completes.
func runSet(ctx context.Context, rc runConfig, withTrace bool) (*report, error) {
	rep := newReport(rc.seed, rc.seconds, rc.clients)
	fmt.Printf("%s; rev %s, %d cores, GOMAXPROCS %d, %s\n", rep.Scenario, rep.GitRev, rep.HostCores, rep.GOMAXPROCS, rep.GoVersion)
	for _, wl := range workloads {
		rc.wl = wl
		wr := &workloadReport{}
		var err error
		if wr.EndToEnd, err = runEndToEnd(ctx, rc); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		printResult(os.Stdout, wr.EndToEnd)
		if withTrace {
			if wr.Traced, err = runTraced(ctx, rc); err != nil {
				return nil, fmt.Errorf("%s traced: %w", wl.Name, err)
			}
			printResult(os.Stdout, wr.Traced)
		}
		rep.Workloads[wl.Name] = wr
	}
	for _, wr := range rep.Workloads {
		if !wr.EndToEnd.Correct || (wr.Traced != nil && !wr.Traced.Correct) {
			return rep, errors.New("a run printed metrics whose outputs did not pass the check")
		}
	}
	return rep, nil
}

func compareFiles(oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	rows, regressed := compareReports(old, cur)
	printCompare(os.Stdout, rows)
	if regressed {
		return errRegression
	}
	return nil
}

// selfCheck measures the same commit twice and holds the second set to
// the first by the benchmark's own bounds.
func selfCheck(ctx context.Context, rc runConfig) error {
	first, err := runSet(ctx, rc, false)
	if err != nil {
		return err
	}
	second, err := runSet(ctx, rc, false)
	if err != nil {
		return err
	}
	rows, regressed := compareReports(first, second)
	printCompare(os.Stdout, rows)
	if regressed {
		return errRegression
	}
	return nil
}
