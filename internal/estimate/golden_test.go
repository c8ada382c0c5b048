package estimate

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/approxdb/congress/internal/datacube"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/sample"
)

// goldenG is the synopsis grouping of goldenSample: region, channel, day.
var goldenG = []int{0, 1, 2}

// goldenSample is a fixed synthetic sample drawn from a fixed-seed RNG.
// Row layout: [region string, channel string, day date, qty int|float,
// price float (NULL ~20%), note string]. qty mixes Int and Float
// values in one column; one stratum's price is all NULL; one stratum
// is empty.
func goldenSample() *sample.Stratified[engine.Row] {
	rng := rand.New(rand.NewSource(20000517))
	st := sample.NewStratified[engine.Row]()
	regions := []string{"east", "north", "west"}
	channels := []string{"store", "web"}
	i := 0
	for _, region := range regions {
		for _, channel := range channels {
			for day := int64(9000); day < 9004; day++ {
				g := engine.Row{engine.NewString(region), engine.NewString(channel), engine.NewDate(day)}
				parts := make([]string, len(g))
				for j, v := range g {
					parts[j] = v.String()
				}
				n := 1 + rng.Intn(20)
				if i == 7 {
					n = 0
				}
				pop := int64(n) * int64(1+rng.Intn(30))
				if n == 0 {
					pop = 40
				}
				items := make([]engine.Row, n)
				for j := range items {
					qty := engine.NewInt(int64(rng.Intn(50)))
					if rng.Intn(3) == 0 {
						qty = engine.NewFloat(rng.Float64() * 50)
					}
					price := engine.NewFloat(900 + rng.NormFloat64()*300)
					if i == 11 || rng.Intn(5) == 0 {
						price = engine.Null
					}
					note := engine.NewString(fmt.Sprintf("n%d", rng.Intn(9)))
					items[j] = append(g.Clone(), qty, price, note)
				}
				st.Put(&sample.Stratum[engine.Row]{
					Key: strings.Join(parts, datacube.KeySep), Population: pop, Items: items,
				})
				i++
			}
		}
	}
	return st
}

// TestGoldenPartialsBytes pins the partials frame of a fixed sample for
// the no-group-by, one-column and full-G groupings over an int/float
// mixed measure, a float measure with NULLs, a string measure and a date
// read as a number (AsFloat's view). The scan must feed the same floats
// in the same order: any change to its bits changes the hash.
func TestGoldenPartialsBytes(t *testing.T) {
	const want = "d44a74af8f5f9a0c683390a36bd29959744ee2064cc50e814189366269f624b8"
	v := strataOf(goldenSample(), goldenG)
	h := sha256.New()
	for _, groupCols := range [][]int{nil, {1}, goldenG} {
		for _, valueCol := range []int{2, 3, 4, 5} {
			parts, err := PartialsCtx(context.Background(), v, groupCols, valueCol)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(EncodePartials(parts, 0))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("partials SHA-256 = %s, want %s", got, want)
	}
}
