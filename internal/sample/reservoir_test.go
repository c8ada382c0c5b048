package sample

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewReservoirValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewReservoir[int](0, rng); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewReservoir[int](-2, rng); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewReservoir[int](5, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestReservoirHoldsWholeShortStream(t *testing.T) {
	r := MustReservoir[int](10, rand.New(rand.NewSource(2)))
	for i := 0; i < 7; i++ {
		if _, evicted, accepted := r.Offer(i); evicted || !accepted {
			t.Fatalf("offer %d: evicted=%v accepted=%v", i, evicted, accepted)
		}
	}
	if r.Len() != 7 || r.Seen() != 7 {
		t.Fatalf("len=%d seen=%d, want 7,7", r.Len(), r.Seen())
	}
}

func TestReservoirNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(50)
		r := MustReservoir[int](capacity, rng)
		n := rng.Intn(2000)
		for i := 0; i < n; i++ {
			r.Offer(i)
		}
		want := capacity
		if n < capacity {
			want = n
		}
		return r.Len() == want && r.Seen() == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Every stream item should appear in the final sample with
	// probability k/n. Run many trials and check per-item inclusion
	// frequency.
	const (
		k      = 10
		n      = 100
		trials = 20000
	)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r := MustReservoir[int](k, rng)
		for i := 0; i < n; i++ {
			r.Offer(i)
		}
		for _, v := range r.Items() {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("item %d included %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestReservoirEvictionReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := MustReservoir[int](3, rng)
	inSample := map[int]bool{}
	for i := 0; i < 1000; i++ {
		evicted, hadEviction, accepted := r.Offer(i)
		if accepted {
			inSample[i] = true
		}
		if hadEviction {
			if !inSample[evicted] {
				t.Fatalf("evicted %d which was not in sample", evicted)
			}
			delete(inSample, evicted)
		}
	}
	if len(inSample) != 3 {
		t.Fatalf("bookkeeping says %d items in sample, want 3", len(inSample))
	}
	for _, v := range r.Items() {
		if !inSample[v] {
			t.Fatalf("reservoir item %d not tracked", v)
		}
	}
}

func TestReservoirShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := MustReservoir[int](20, rng)
	for i := 0; i < 100; i++ {
		r.Offer(i)
	}
	evicted, err := r.Shrink(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 8 {
		t.Fatalf("after shrink len=%d, want 8", r.Len())
	}
	if len(evicted) != 12 {
		t.Fatalf("shrink evicted %d, want 12", len(evicted))
	}
	if r.Cap() != 8 {
		t.Fatalf("cap=%d, want 8", r.Cap())
	}
	// Shrink below 1 is a capacity underflow, surfaced as an error that
	// leaves the reservoir untouched (it used to clamp silently to 1).
	if _, err := r.Shrink(0, rng); !errors.Is(err, ErrCapacityUnderflow) {
		t.Fatalf("Shrink(0) err=%v, want ErrCapacityUnderflow", err)
	}
	if _, err := r.Shrink(-3, rng); !errors.Is(err, ErrCapacityUnderflow) {
		t.Fatalf("Shrink(-3) err=%v, want ErrCapacityUnderflow", err)
	}
	// A capacity never grows.
	if _, err := r.Shrink(9, rng); err == nil {
		t.Fatal("Shrink(9) on capacity 8 succeeded, want an error")
	}
	if r.Cap() != 8 || r.Len() != 8 {
		t.Fatalf("failed shrink mutated reservoir: cap=%d len=%d, want 8,8", r.Cap(), r.Len())
	}
	// Nor does a restored one: free space after the stream outran the
	// capacity is a state only growth could produce.
	if _, err := RestoreReservoir(&ReservoirState[int]{Capacity: 10, Seen: 50, Items: []int{1, 2, 3, 4, 5}}, rng); err == nil {
		t.Fatal("restored a reservoir holding 5 of capacity 10 after 50 seen")
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx := SampleWithoutReplacement(100, 30, rng)
	if len(idx) != 30 {
		t.Fatalf("got %d indices, want 30", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	// Over-ask returns the whole population.
	all := SampleWithoutReplacement(10, 50, rng)
	if len(all) != 10 {
		t.Fatalf("over-ask returned %d, want 10", len(all))
	}
	if got := SampleWithoutReplacement(10, 0, rng); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
	if got := SampleWithoutReplacement(10, -1, rng); got != nil {
		t.Fatalf("n<0 returned %v, want nil", got)
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const trials = 30000
	counts := make([]int, 20)
	for i := 0; i < trials; i++ {
		for _, j := range SampleWithoutReplacement(20, 5, rng) {
			counts[j]++
		}
	}
	want := float64(trials) * 5 / 20
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("index %d chosen %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if !Bernoulli(1.0, rng) || !Bernoulli(2.0, rng) {
			t.Fatal("p>=1 must always accept")
		}
		if Bernoulli(0, rng) || Bernoulli(-1, rng) {
			t.Fatal("p<=0 must always reject")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if Bernoulli(0.3, rng) {
			hits++
		}
	}
	if math.Abs(float64(hits)/trials-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) hit rate %v", float64(hits)/trials)
	}
}

func TestBinomialApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	if BinomialApprox(0, 0.5, rng) != 0 || BinomialApprox(10, 0, rng) != 0 {
		t.Error("degenerate binomial should be 0")
	}
	if BinomialApprox(10, 1, rng) != 10 {
		t.Error("p=1 should return n")
	}
	var sum float64
	const trials = 5000
	for i := 0; i < trials; i++ {
		c := BinomialApprox(1000, 0.2, rng)
		if c < 0 || c > 1000 {
			t.Fatalf("count %d out of range", c)
		}
		sum += float64(c)
	}
	if mean := sum / trials; math.Abs(mean-200) > 5 {
		t.Errorf("binomial mean %v, want ~200", mean)
	}
}

func BenchmarkReservoirOffer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := MustReservoir[int](1000, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Offer(i)
	}
}
