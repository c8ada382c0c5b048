package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-42), "-42"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{MustParseDate("1998-09-01"), "1998-09-01"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("1970-01-02")
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 1 {
		t.Errorf("1970-01-02 = %d epoch days, want 1", v.I)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("bad date accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParseDate on garbage did not panic")
		}
	}()
	MustParseDate("garbage")
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewFloat(2.5), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{MustParseDate("1998-01-01"), MustParseDate("1998-06-01"), -1},
		{NewBool(true), NewBool(false), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	vals := []Value{Null, NewInt(1), NewInt(5), NewFloat(3.2), NewString("x"), NewBool(true), MustParseDate("2000-01-01")}
	for _, a := range vals {
		for _, b := range vals {
			if a.Compare(b) != -b.Compare(a) {
				t.Errorf("Compare(%v,%v) not antisymmetric", a, b)
			}
		}
	}
}

func TestGroupKeyDistinctness(t *testing.T) {
	vals := []Value{
		Null, NewBool(true), NewBool(false),
		NewInt(0), NewInt(1), NewInt(-1),
		NewFloat(0), NewFloat(1.5),
		NewString(""), NewString("a"), NewString("n"),
		NewDate(0), NewDate(1),
	}
	seen := make(map[string]Value)
	for _, v := range vals {
		k := v.GroupKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("GroupKey collision between %v (%s) and %v", prev, prev.K, v)
		}
		seen[k] = v
	}
}

func TestGroupKeyIntRoundTrip(t *testing.T) {
	f := func(a, b int64) bool {
		ka := NewInt(a).GroupKey()
		kb := NewInt(b).GroupKey()
		return (ka == kb) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if f, ok := NewInt(7).AsFloat(); !ok || f != 7 {
		t.Error("int AsFloat failed")
	}
	if f, ok := NewFloat(2.5).AsFloat(); !ok || f != 2.5 {
		t.Error("float AsFloat failed")
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("string AsFloat succeeded")
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("null AsFloat succeeded")
	}
	if i, ok := NewFloat(2.9).AsInt(); !ok || i != 2 {
		t.Error("float AsInt should truncate")
	}
	if i, ok := NewBool(true).AsInt(); !ok || i != 1 {
		t.Error("bool AsInt failed")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindBool: "BOOLEAN", KindInt: "INTEGER",
		KindFloat: "FLOAT", KindString: "VARCHAR", KindDate: "DATE",
	} {
		if k.String() != want {
			t.Errorf("Kind %d String = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// TestAppendJSONMatchesEncodingJSON: AppendJSON writes the bytes
// encoding/json (HTML escaping off) writes for JSONValue, over random
// float bit patterns, random byte strings and every kind; a non-finite
// float, which encoding/json refuses, is null.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	const alphabet = "a\"\\\x00\x1f\x7f\xe2\x80\xa8\xa9\xff\xc3\xa9<&>" // U+2028/9 pieces, invalid UTF-8
	rng := rand.New(rand.NewSource(1))
	vals := []Value{Null, NewBool(true), NewBool(false), NewInt(math.MinInt64), NewInt(1<<53 + 1),
		NewFloat(math.Copysign(0, -1)), NewFloat(1e-6), NewFloat(1e21), NewDate(-1), NewDate(0), NewDate(10957)}
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(8))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		vals = append(vals, NewFloat(math.Float64frombits(rng.Uint64())), NewString(string(b)),
			NewInt(rng.Int63()-rng.Int63()), NewDate(int64(rng.Intn(200000)-100000)))
	}
	for _, v := range vals {
		got := v.AppendJSON(nil)
		if v.K == KindFloat && (math.IsInf(v.F, 0) || math.IsNaN(v.F)) {
			if string(got) != "null" {
				t.Errorf("%v: %s, want null", v.F, got)
			}
			continue
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v.JSONValue()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want.Bytes()) {
			t.Errorf("%#v: %s, want %s", v, got, want.Bytes())
		}
	}
}
