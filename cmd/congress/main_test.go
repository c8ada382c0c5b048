package main

import (
	"os"
	"strings"
	"testing"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/aqua"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/rewrite"
	"github.com/approxdb/congress/internal/tpcd"
)

func TestRunEndToEnd(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-rows", "5000", "-groups", "27", "-skew", "1.2",
		"-space-pct", "5", "-strategy", "congress", "-rewrite", "integrated",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"exact answer", "approximate answer", "errors:", "speedup:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q:\n%s", frag, s)
		}
	}
}

func TestRunWorkersAndMetrics(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-rows", "5000", "-groups", "27", "-skew", "1.2",
		"-workers", "4", "-metrics",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{
		"speedup:",
		"congress_rows_scanned_total",
		"congress_build_total 1",
		"congress_answer_total",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q:\n%s", frag, s)
		}
	}
}

func TestRunExplain(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rows", "3000", "-groups", "8", "-explain", "-rewrite", "keynormalized"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "csk_lineitem") {
		t.Errorf("explain output:\n%s", out.String())
	}
}

func TestRunAllStrategyAndRewriteNames(t *testing.T) {
	for _, s := range []string{"house", "senate", "basic", "basiccongress", "basic-congress", "congress"} {
		if _, err := congress.ParseStrategy(s); err != nil {
			t.Errorf("ParseStrategy(%q): %v", s, err)
		}
		var out strings.Builder
		if err := run([]string{"-rows", "2000", "-groups", "8", "-strategy", s, "-explain"}, &out); err != nil {
			t.Errorf("-strategy %s: %v", s, err)
		}
	}
	if _, err := congress.ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
	for _, s := range []string{"integrated", "nested", "nestedintegrated", "normalized", "keynormalized", "nested-integrated", "key-normalized"} {
		if _, err := congress.ParseRewriteStrategy(s); err != nil {
			t.Errorf("ParseRewriteStrategy(%q): %v", s, err)
		}
	}
	if _, err := congress.ParseRewriteStrategy("bogus"); err == nil {
		t.Error("bogus rewrite accepted")
	}
}

func TestRunCSVLoadAndSave(t *testing.T) {
	dir := t.TempDir()
	in := dir + "/data.csv"
	csvData := "g,h,v\nVARCHAR,VARCHAR,FLOAT\n"
	for i := 0; i < 400; i++ {
		csvData += "a,x,1.5\n"
	}
	for i := 0; i < 40; i++ {
		csvData += "b,y,9.5\n"
	}
	if err := os.WriteFile(in, []byte(csvData), 0o644); err != nil {
		t.Fatal(err)
	}
	outCSV := dir + "/sample.csv"
	var out strings.Builder
	err := run([]string{
		"-load", in, "-table", "mydata", "-group-cols", "g,h",
		"-space-pct", "20", "-save-sample", outCSV,
		"-query", "select g, sum(v) from mydata group by g order by g",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "loaded mydata: 440 rows") {
		t.Errorf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "sample written to") {
		t.Errorf("sample not saved:\n%s", out.String())
	}
	data, err := os.ReadFile(outCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "sf") {
		t.Errorf("saved sample lacks sf column:\n%s", string(data[:200]))
	}
	// Missing file errors.
	if err := run([]string{"-load", dir + "/nope.csv"}, &out); err == nil {
		t.Error("missing CSV accepted")
	}
}

func TestRunShowAllocation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-rows", "3000", "-groups", "8", "-show-allocation"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "scale-down f") || !strings.Contains(s, "population") {
		t.Errorf("allocation output:\n%s", s)
	}
}

func TestREPL(t *testing.T) {
	// Build a tiny synopsis directly and drive the REPL loop.
	rel := tpcd.MustGenerate(tpcd.Params{TableSize: 3000, NumGroups: 8, Seed: 2})
	cat := engine.NewCatalog()
	cat.Register(rel)
	a := aqua.New(cat)
	if _, err := a.CreateSynopsis(aqua.Config{
		Table: "lineitem", GroupCols: tpcd.GroupingAttrs, Space: 300, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(`
-- a comment
select l_returnflag, sum(l_quantity) from lineitem group by l_returnflag
exact select count(*) from lineitem
explain select sum(l_quantity) from lineitem
not valid sql
quit
`)
	var out strings.Builder
	if err := runREPL(a, rewrite.Integrated, in, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"approximate", "3000", "cs_lineitem", "error:"} {
		if !strings.Contains(s, frag) {
			t.Errorf("repl output missing %q:\n%s", frag, s)
		}
	}
	// EOF without quit terminates cleanly.
	var out2 strings.Builder
	if err := runREPL(a, rewrite.Integrated, strings.NewReader("select count(*) from lineitem\n"), &out2); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-strategy", "bogus"}, &out); err == nil {
		t.Error("bogus strategy flag accepted")
	}
	if err := run([]string{"-rewrite", "bogus"}, &out); err == nil {
		t.Error("bogus rewrite flag accepted")
	}
	if err := run([]string{"-notaflag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-rows", "2000", "-groups", "8", "-query", "not sql"}, &out); err == nil {
		t.Error("bad query accepted")
	}
}
