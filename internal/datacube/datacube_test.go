package datacube

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func id(parts ...string) GroupID { return GroupID(parts) }

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty attribute list accepted")
	}
	attrs := make([]string, MaxAttrs+1)
	for i := range attrs {
		attrs[i] = strconv.Itoa(i)
	}
	if _, err := New(attrs); err == nil {
		t.Error("too many attributes accepted")
	}
	if c := MustNew([]string{"a", "b"}); c.NumGroupings() != 4 {
		t.Errorf("2 attrs => %d groupings, want 4", c.NumGroupings())
	}
}

func TestProject(t *testing.T) {
	g := id("A", "B", "C")
	if got := g.Project(0); got != "" {
		t.Errorf("empty grouping key = %q, want empty", got)
	}
	if got := g.Project(0b001); got != "A" {
		t.Errorf("mask 001 = %q", got)
	}
	if got := g.Project(0b101); got != "A"+KeySep+"C" {
		t.Errorf("mask 101 = %q", got)
	}
	if got := g.Key(); got != "A"+KeySep+"B"+KeySep+"C" {
		t.Errorf("finest key = %q", got)
	}
	// An empty part keeps its place, as in strings.Join.
	e := id("", "B", "")
	if got := e.Project(0b011); got != KeySep+"B" {
		t.Errorf("empty first part: mask 011 = %q", got)
	}
	if got := e.Project(0b101); got != KeySep {
		t.Errorf("two empty parts: mask 101 = %q", got)
	}
	if got := e.Project(0b001); got != "" {
		t.Errorf("one empty part: mask 001 = %q", got)
	}
}

func TestAddArityCheck(t *testing.T) {
	c := MustNew([]string{"a", "b"})
	if err := c.Add(id("x")); err == nil {
		t.Error("short group id accepted")
	}
	if err := c.Add(id("x", "y", "z")); err == nil {
		t.Error("long group id accepted")
	}
}

func TestCountsFigure5Layout(t *testing.T) {
	// The Figure 5 example: groups (a1,b1)=3000, (a1,b2)=3000,
	// (a1,b3)=1500, (a2,b3)=2500. We add one tuple per... that would be
	// slow; instead add counts by repeated Add on a scaled-down version
	// (divide by 500): 6, 6, 3, 5.
	c := MustNew([]string{"A", "B"})
	add := func(a, b string, n int) {
		for i := 0; i < n; i++ {
			if err := c.Add(id(a, b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("a1", "b1", 6)
	add("a1", "b2", 6)
	add("a1", "b3", 3)
	add("a2", "b3", 5)

	if c.Total() != 20 {
		t.Fatalf("total=%d, want 20", c.Total())
	}
	// Empty grouping: one group with everything.
	if c.NumGroups(0) != 1 || c.Count(0, "") != 20 {
		t.Fatalf("empty grouping: %d groups count %d", c.NumGroups(0), c.Count(0, ""))
	}
	// Grouping on A (bit 0): a1=15, a2=5.
	if c.NumGroups(0b01) != 2 {
		t.Fatalf("A grouping has %d groups", c.NumGroups(0b01))
	}
	if c.Count(0b01, "a1") != 15 || c.Count(0b01, "a2") != 5 {
		t.Fatalf("A counts: a1=%d a2=%d", c.Count(0b01, "a1"), c.Count(0b01, "a2"))
	}
	// Grouping on B (bit 1): b1=6, b2=6, b3=8.
	if c.NumGroups(0b10) != 3 || c.Count(0b10, "b3") != 8 {
		t.Fatalf("B grouping wrong: groups=%d b3=%d", c.NumGroups(0b10), c.Count(0b10, "b3"))
	}
	// Finest grouping: 4 groups.
	if c.NumGroups(c.FinestMask()) != 4 {
		t.Fatalf("finest grouping has %d groups, want 4", c.NumGroups(c.FinestMask()))
	}
	if got := c.CountFor(0b10, id("a2", "b3")); got != 8 {
		t.Fatalf("CountFor(B, (a2,b3)) = %d, want 8", got)
	}
}

func TestGroupsUnderAndFinestGroups(t *testing.T) {
	c := MustNew([]string{"x"})
	c.Add(id("p"))
	c.Add(id("q"))
	c.Add(id("p"))
	c.Add(id("b"))
	var keys []string
	got := map[string]int64{}
	c.FinestGroups(func(k string, n int64) { keys, got[k] = append(keys, k), n })
	if len(got) != 3 || got["p"] != 2 || got["q"] != 1 || got["b"] != 1 {
		t.Fatalf("finest groups %v", got)
	}
	// Every visitor walks keys in ascending order, so sums taken over a
	// visit are the same in every run.
	if fmt.Sprint(keys) != "[b p q]" {
		t.Errorf("FinestGroups order %v, want [b p q]", keys)
	}
	keys = keys[:0]
	c.FinestIDs(func(_ GroupID, k string, _ int64) { keys = append(keys, k) })
	if fmt.Sprint(keys) != "[b p q]" {
		t.Errorf("FinestIDs order %v, want [b p q]", keys)
	}
	var totalViaEmpty int64
	c.GroupsUnder(0, func(k string, n int64) { totalViaEmpty += n })
	if totalViaEmpty != 4 {
		t.Fatalf("empty grouping total %d", totalViaEmpty)
	}
}

// Property: for every grouping, per-group counts sum to the total, and
// the count of a coarse group equals the sum of its subgroup counts.
func TestCubeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew([]string{"a", "b", "c"})
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			g := id(
				"a"+strconv.Itoa(rng.Intn(3)),
				"b"+strconv.Itoa(rng.Intn(4)),
				"c"+strconv.Itoa(rng.Intn(2)),
			)
			if err := c.Add(g); err != nil {
				return false
			}
		}
		for mask := uint32(0); int(mask) < c.NumGroupings(); mask++ {
			var sum int64
			c.GroupsUnder(mask, func(_ string, cnt int64) { sum += cnt })
			if sum != c.Total() {
				return false
			}
		}
		// Coarse group count equals sum over finest subgroups: check
		// grouping on attribute a (mask 1).
		fromFinest := map[string]int64{}
		c.FinestGroups(func(k string, cnt int64) {
			// finest key is a<KeySep>b<KeySep>c; recover a-part.
			aPart := k[:indexOf(k, KeySep)]
			fromFinest[aPart] += cnt
		})
		ok := true
		c.GroupsUnder(1, func(k string, cnt int64) {
			if fromFinest[k] != cnt {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func indexOf(s, sep string) int {
	for i := 0; i+len(sep) <= len(s); i++ {
		if s[i:i+len(sep)] == sep {
			return i
		}
	}
	return len(s)
}

func TestAccessors(t *testing.T) {
	c := MustNew([]string{"a", "b"})
	if got := c.Attrs(); len(got) != 2 || got[0] != "a" {
		t.Errorf("attrs %v", got)
	}
	if c.NumAttrs() != 2 {
		t.Errorf("num attrs %d", c.NumAttrs())
	}
	c.Add(id("x", "y"))
	gid, ok := c.ID(id("x", "y").Key())
	if !ok || gid[0] != "x" || gid[1] != "y" {
		t.Errorf("ID lookup %v %v", gid, ok)
	}
	if _, ok := c.ID("nope"); ok {
		t.Error("phantom id found")
	}
	seen := 0
	c.FinestIDs(func(g GroupID, key string, n int64) {
		seen++
		if g.Key() != key || n != 1 {
			t.Errorf("finest id mismatch %v %q %d", g, key, n)
		}
	})
	if seen != 1 {
		t.Errorf("finest ids visited %d", seen)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(nil) did not panic")
		}
	}()
	MustNew(nil)
}

func BenchmarkAddThreeAttrs(b *testing.B) {
	c := MustNew([]string{"a", "b", "c"})
	g := id("a1", "b1", "c1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(g)
	}
}
