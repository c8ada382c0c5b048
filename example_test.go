package congress_test

import (
	"fmt"
	"log"

	congress "github.com/approxdb/congress"
)

// loadExampleWarehouse builds a deterministic skewed sales table.
func loadExampleWarehouse() *congress.Warehouse {
	w := congress.Open()
	tbl, err := w.CreateTable("sales",
		congress.Col("region", congress.String),
		congress.Col("amount", congress.Float),
	)
	if err != nil {
		log.Fatal(err)
	}
	load := func(region string, n int, amount float64) {
		for i := 0; i < n; i++ {
			if err := tbl.Insert(congress.Str(region), congress.F(amount)); err != nil {
				log.Fatal(err)
			}
		}
	}
	load("east", 9000, 10)
	load("west", 900, 20)
	load("north", 100, 30)
	return w
}

// Example demonstrates the core flow: build a congressional sample,
// then compare an exact and an approximate group-by answer.
func Example() {
	w := loadExampleWarehouse()
	if err := w.BuildSynopsis(congress.SynopsisSpec{
		Table:   "sales",
		GroupBy: []string{"region"},
		Space:   300,
		Seed:    1,
	}); err != nil {
		log.Fatal(err)
	}

	exact, _ := w.Query(`select region, sum(amount) from sales group by region order by region`)
	approx, _ := w.Approx(`select region, sum(amount) from sales group by region order by region`)
	for i, row := range exact.Rows {
		ev, _ := row[1].AsFloat()
		av, _ := approx.Rows[i][1].AsFloat()
		// With constant per-region amounts, within-group variance is
		// zero, so the stratified estimate is exact.
		fmt.Printf("%s exact=%.0f approx=%.0f\n", row[0], ev, av)
	}
	// Output:
	// east exact=90000 approx=90000
	// north exact=3000 approx=3000
	// west exact=18000 approx=18000
}

// ExampleWarehouse_Explain shows the rewritten SQL a strategy executes.
func ExampleWarehouse_Explain() {
	w := loadExampleWarehouse()
	if err := w.BuildSynopsis(congress.SynopsisSpec{
		Table: "sales", GroupBy: []string{"region"}, Space: 100, Seed: 1,
	}); err != nil {
		log.Fatal(err)
	}
	sqlText, _ := w.Explain(`select region, sum(amount) from sales group by region`, congress.Integrated)
	fmt.Println(sqlText)
	// Output:
	// SELECT region, SUM((amount * sf)) FROM cs_sales GROUP BY region
}

// ExampleWarehouse_Estimate uses the direct estimation path with
// confidence bounds instead of SQL.
func ExampleWarehouse_Estimate() {
	w := loadExampleWarehouse()
	if err := w.BuildSynopsis(congress.SynopsisSpec{
		Table: "sales", GroupBy: []string{"region"}, Space: 300, Seed: 1,
	}); err != nil {
		log.Fatal(err)
	}
	ests, _ := w.Estimate("sales", []string{"region"}, congress.Count, "amount", 0.95)
	for _, e := range ests {
		fmt.Printf("%s count=%.0f\n", e.Key, e.Value)
	}
	// Output:
	// east count=9000
	// north count=100
	// west count=900
}
