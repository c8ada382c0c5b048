package interval

import (
	"math"
	"testing"
)

func TestZScore(t *testing.T) {
	cases := []struct{ conf, want float64 }{
		{0.90, 1.6449},
		{0.95, 1.9600},
		{0.99, 2.5758},
		{0.50, 0.6745},
	}
	for _, c := range cases {
		if got := ZScore(c.conf); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("ZScore(%v) = %v, want %v", c.conf, got, c.want)
		}
	}
	if !math.IsNaN(normInv(0)) || !math.IsNaN(normInv(1)) {
		t.Error("normInv must reject 0 and 1")
	}
	// Symmetry.
	if math.Abs(normInv(0.01)+normInv(0.99)) > 1e-6 {
		t.Error("normInv not symmetric")
	}
	// Tail branch sanity.
	if normInv(0.001) > -3 || normInv(0.999) < 3 {
		t.Error("tail quantiles too small")
	}
}
