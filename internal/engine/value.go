// Package engine implements the in-memory relational substrate that the
// congressional-samples middleware runs on: typed values, schemas,
// relations, a catalog, and a SQL executor for the dialect produced by
// the query rewriters of Section 5 of the paper.
//
// The engine plays the role Oracle v7 played in the paper's testbed
// (Section 7.1): it stores both base relations and sample relations and
// executes the rewritten queries. It is deliberately simple — row-store,
// hash aggregation, hash and nested-loop joins — but complete enough to
// run every query shape the paper uses, including nested group-by
// subqueries (Nested-integrated rewriting) and sample/aux joins
// (Normalized and Key-normalized rewriting).
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// Kind enumerates the runtime types a Value can take.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate // stored as days since 1970-01-01 (UTC)
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind is the inverse of Kind.String: it resolves the SQL-ish name
// back to the kind. Distributed coordinators use it to reconstruct
// shard schemas shipped over /v1/synopses.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "NULL":
		return KindNull, nil
	case "BOOLEAN":
		return KindBool, nil
	case "INTEGER":
		return KindInt, nil
	case "FLOAT":
		return KindFloat, nil
	case "VARCHAR":
		return KindString, nil
	case "DATE":
		return KindDate, nil
	}
	return KindNull, fmt.Errorf("engine: unknown kind %q", s)
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
//
// Values are small (no pointers beyond the string header) and passed by
// value throughout the engine.
type Value struct {
	K Kind
	I int64   // KindInt, KindDate (epoch days), KindBool (0 or 1)
	F float64 // KindFloat
	S string  // KindString
}

// Null is the SQL NULL value.
var Null = Value{K: KindNull}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// NewDate returns a DATE value holding the given epoch-day count.
func NewDate(epochDays int64) Value { return Value{K: KindDate, I: epochDays} }

// ParseDate parses an ISO yyyy-mm-dd string into a DATE value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("engine: bad date %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// MustParseDate is ParseDate but panics on error; for constants in tests
// and generators.
func MustParseDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean interpretation of v. NULL is false.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// AsFloat converts a numeric value to float64. NULL converts to 0 with
// ok=false; non-numeric kinds return ok=false.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.K {
	case KindInt, KindDate, KindBool:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// AsInt converts a numeric value to int64, truncating floats.
func (v Value) AsInt() (int64, bool) {
	switch v.K {
	case KindInt, KindDate, KindBool:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	default:
		return 0, false
	}
}

// numeric reports whether the kind participates in arithmetic.
func (k Kind) numeric() bool {
	return k == KindInt || k == KindFloat || k == KindDate || k == KindBool
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before everything and equals only NULL. Numeric kinds
// compare numerically across int/float/date; strings compare
// lexicographically. Comparing a string with a number compares kind tags
// (stable but arbitrary), mirroring the lenient behaviour of the paper's
// testbed for heterogeneous columns.
func (v Value) Compare(o Value) int {
	if v.K == KindNull || o.K == KindNull {
		switch {
		case v.K == o.K:
			return 0
		case v.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.K.numeric() && o.K.numeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.K == KindString && o.K == KindString {
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		default:
			return 0
		}
	}
	// Heterogeneous: order by kind tag.
	switch {
	case v.K < o.K:
		return -1
	case v.K > o.K:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values compare equal.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// GroupKey returns a string usable as a hash key for grouping. Distinct
// values map to distinct keys; numerically equal int/float values map to
// the same key only if they are the same kind (group-by columns are
// homogeneous in practice).
func (v Value) GroupKey() string {
	return string(v.AppendGroupKey(nil))
}

// AppendGroupKey appends the GroupKey encoding of v to dst and returns
// the extended slice. Scan loops that build composite keys use it with a
// reused scratch buffer so the per-row key costs no allocation; the
// bytes appended are exactly GroupKey's.
func (v Value) AppendGroupKey(dst []byte) []byte {
	switch v.K {
	case KindNull:
		return append(dst, "\x00n"...)
	case KindBool:
		if v.I != 0 {
			return append(dst, "\x00t"...)
		}
		return append(dst, "\x00f"...)
	case KindInt:
		return strconv.AppendInt(append(dst, "\x00i"...), v.I, 36)
	case KindDate:
		return strconv.AppendInt(append(dst, "\x00d"...), v.I, 36)
	case KindFloat:
		return strconv.AppendUint(append(dst, "\x00g"...), math.Float64bits(v.F), 36)
	default:
		return append(append(dst, "\x00s"...), v.S...)
	}
}

// JSONValue returns v in its JSON wire form, the one congressd uses for
// result rows and insert rows alike: NULL is null, booleans and numbers
// stay themselves, strings and dates render as display text. It is the
// inverse of ParseJSONValue; AppendJSON writes the same form as bytes.
func (v Value) JSONValue() any {
	switch v.K {
	case KindNull:
		return nil
	case KindBool:
		return v.I != 0
	case KindInt:
		return v.I
	case KindFloat:
		return v.F
	default:
		return v.String()
	}
}

// AppendJSON appends v's JSON wire form to dst: the bytes encoding/json
// writes for JSONValue() (HTML left unescaped), with no reflection and
// no boxing. A non-finite FLOAT, which JSON cannot carry and
// encoding/json refuses, is null — what the engine returns for x / 0.
func (v Value) AppendJSON(dst []byte) []byte {
	switch v.K {
	case KindNull:
		return append(dst, "null"...)
	case KindBool:
		if v.I != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return appendJSONFloat(dst, v.F)
	case KindDate:
		dst = time.Unix(v.I*86400, 0).UTC().AppendFormat(append(dst, '"'), "2006-01-02")
		return append(dst, '"')
	default:
		return appendJSONString(dst, v.S)
	}
}

// appendJSONFloat is encoding/json's float64 form: the shortest
// round-trip digits, 'f' notation unless the magnitude is below 1e-6 or
// at least 1e21, and a two-digit negative exponent cut to one (e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString is encoding/json's string form with HTML escaping
// off: quote and backslash escaped, control bytes as \b \f \n \r \t or
// \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// maxExactFloatInt is 2^53: every integer up to it in magnitude has an
// exact float64, so an integral number written in float syntax
// ("7.0", "1e3") converts to INTEGER without rounding.
const maxExactFloatInt = 1 << 53

// ParseJSONValue converts one decoded JSON value to a Value of kind k.
// Numbers must arrive as json.Number (decode with
// json.Decoder.UseNumber): an INTEGER is parsed from the literal, so it
// is exact across the whole int64 range, and a number that does not fit
// the kind is an error, never a rounded value.
func ParseJSONValue(raw any, k Kind) (Value, error) {
	if raw == nil {
		return Null, nil
	}
	switch k {
	case KindInt:
		n, ok := raw.(json.Number)
		if !ok {
			return Null, fmt.Errorf("want integer, got %v", raw)
		}
		i, err := strconv.ParseInt(string(n), 10, 64)
		if err == nil {
			return NewInt(i), nil
		}
		if errors.Is(err, strconv.ErrRange) {
			return Null, fmt.Errorf("integer %s does not fit in 64 bits", n)
		}
		f, err := strconv.ParseFloat(string(n), 64)
		if err != nil || f != math.Trunc(f) || math.Abs(f) > maxExactFloatInt {
			return Null, fmt.Errorf("want integer, got %s", n)
		}
		return NewInt(int64(f)), nil
	case KindFloat:
		n, ok := raw.(json.Number)
		if !ok {
			return Null, fmt.Errorf("want number, got %v", raw)
		}
		f, err := strconv.ParseFloat(string(n), 64)
		if err != nil {
			return Null, fmt.Errorf("number %s does not fit in a float64", n)
		}
		return NewFloat(f), nil
	case KindString:
		s, ok := raw.(string)
		if !ok {
			return Null, fmt.Errorf("want string, got %v", raw)
		}
		return NewString(s), nil
	case KindBool:
		b, ok := raw.(bool)
		if !ok {
			return Null, fmt.Errorf("want boolean, got %v", raw)
		}
		return NewBool(b), nil
	case KindDate:
		s, ok := raw.(string)
		if !ok {
			return Null, fmt.Errorf("want %q date string, got %v", "yyyy-mm-dd", raw)
		}
		return ParseDate(s)
	default:
		return Null, fmt.Errorf("unsupported column kind %v", k)
	}
}

// String renders the value for result display.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindDate:
		return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
	default:
		return v.S
	}
}
