package client

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeQueryResponse decodes a /v1/query or /v1/exact reply body with
// one hand-written scanner instead of encoding/json's reflection. It
// accepts what encoding/json accepts for a QueryResponse (any key order,
// insignificant whitespace, string escapes, keys matched exactly or else
// case-insensitively, unknown keys skipped) and, wherever it accepts,
// gives the value json.Unmarshal gives. It rejects a little more: a
// repeated key, a row cell that is an array or object, a top-level value
// other than an object, and nesting deeper than maxReplyDepth inside an
// unknown key. A row's numbers are float64, as encoding/json makes them.
//
// Strings without escapes are substrings of one copy of body, so the
// decoded reply costs a handful of allocations plus one per float cell.
func DecodeQueryResponse(body []byte) (*QueryResponse, error) {
	d := replyDecoder{s: string(body)}
	var out QueryResponse
	d.reply(&out)
	if d.peek(); d.i < len(d.s) {
		d.fail("data after the reply object")
	}
	if d.err != nil {
		return nil, d.err
	}
	return &out, nil
}

// maxReplyDepth bounds the nesting the decoder follows inside a value it
// skips; encoding/json's own limit is 10000.
const maxReplyDepth = 64

var (
	replyFields = []string{"columns", "rows", "groups", "elapsed_ms", "cache"}
	groupFields = []string{"group", "value", "bound", "sample_n"}
)

// replyDecoder is a cursor over one reply. The first failure is kept in
// err and moves the cursor to the end, so every loop stops at once.
type replyDecoder struct {
	s   string
	i   int
	err error
	// parts and cells are the backing arrays every []string and every
	// row is cut from, capacity-clipped so no two share an append.
	parts []string
	cells []any
}

func (d *replyDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("client: malformed query reply at byte %d: %s", d.i, what)
	}
	d.i = len(d.s)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *replyDecoder) peek() byte {
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// open consumes c, the '{' or '[' that must come next.
func (d *replyDecoder) open(c byte) bool {
	if d.peek() != c {
		d.fail("want " + string(c))
		return false
	}
	d.i++
	return true
}

// next reports whether another element of the array or object whose
// opening bracket was consumed follows, consuming the ',' before it or
// the closing bracket after the last.
func (d *replyDecoder) next(closing byte, first bool) bool {
	switch c := d.peek(); {
	case c == closing:
		d.i++
		return false
	case first:
		return true
	case c == ',':
		d.i++
		return true
	}
	d.fail("want , or " + string(closing))
	return false
}

// literal consumes word (null, true or false) if it comes next.
func (d *replyDecoder) literal(word string) bool {
	if d.peek() != word[0] {
		return false
	}
	if !strings.HasPrefix(d.s[d.i:], word) {
		d.fail("bad literal")
		return false
	}
	d.i += len(word)
	return true
}

// field reads an object key and its colon and resolves the key as
// encoding/json does: an exact match, else a case-insensitive one. It
// returns -1 for an unknown key and fails on a repeated known one, whose
// values encoding/json would merge.
func (d *replyDecoder) field(names []string, seen *uint) int {
	key := d.str()
	if d.peek() != ':' {
		d.fail("want :")
		return -1
	}
	d.i++
	f := -1
	for i, n := range names {
		if key == n {
			f = i
			break
		}
	}
	for i := 0; f < 0 && i < len(names); i++ {
		if strings.EqualFold(key, names[i]) {
			f = i
		}
	}
	if f >= 0 {
		if *seen&(1<<f) != 0 {
			d.fail("repeated key " + strconv.Quote(key))
			return -1
		}
		*seen |= 1 << f
	}
	return f
}

func (d *replyDecoder) reply(out *QueryResponse) {
	if !d.open('{') {
		return
	}
	var seen uint
	for first := true; d.next('}', first); first = false {
		switch d.field(replyFields, &seen) {
		case 0:
			out.Columns = d.strings()
		case 1:
			out.Rows = d.rows()
		case 2:
			out.Groups = d.groups()
		case 3:
			d.float(&out.ElapsedMS)
		case 4:
			if !d.literal("null") {
				out.Cache = d.str()
			}
		default:
			d.skip(0)
		}
	}
}

func (d *replyDecoder) groups() []GroupEstimate {
	if d.literal("null") || !d.open('[') {
		return nil
	}
	gs := []GroupEstimate{}
	for first := true; d.next(']', first); first = false {
		var g GroupEstimate
		if !d.literal("null") && d.open('{') {
			var seen uint
			for f := true; d.next('}', f); f = false {
				switch d.field(groupFields, &seen) {
				case 0:
					g.Group = d.strings()
				case 1:
					d.float(&g.Value)
				case 2:
					d.float(&g.Bound)
				case 3:
					d.int(&g.SampleN)
				default:
					d.skip(0)
				}
			}
		}
		gs = append(gs, g)
	}
	return gs
}

func (d *replyDecoder) rows() [][]any {
	if d.literal("null") || !d.open('[') {
		return nil
	}
	rows := [][]any{}
	for first := true; d.next(']', first); first = false {
		if d.literal("null") {
			rows = append(rows, nil)
			continue
		}
		if !d.open('[') {
			break
		}
		start := len(d.cells)
		for f := true; d.next(']', f); f = false {
			d.cells = append(d.cells, d.cell())
		}
		row := []any{}
		if n := len(d.cells); n > start {
			row = d.cells[start:n:n]
		}
		rows = append(rows, row)
	}
	return rows
}

// strings reads a []string: null is nil, [] is empty, a null element "".
func (d *replyDecoder) strings() []string {
	if d.literal("null") || !d.open('[') {
		return nil
	}
	start := len(d.parts)
	for first := true; d.next(']', first); first = false {
		s := ""
		if !d.literal("null") {
			s = d.str()
		}
		d.parts = append(d.parts, s)
	}
	n := len(d.parts)
	if n == start {
		return []string{}
	}
	return d.parts[start:n:n]
}

// cell reads one row value: null, a bool, a float64 or a string.
func (d *replyDecoder) cell() any {
	switch c := d.peek(); {
	case d.literal("null"):
		return nil
	case d.literal("true"):
		return true
	case d.literal("false"):
		return false
	case c == '"':
		return d.str()
	case c == '-' || '0' <= c && c <= '9':
		f, err := strconv.ParseFloat(d.number(), 64)
		if err != nil {
			d.fail("number out of range")
		}
		return f
	}
	d.fail("want a null, bool, number or string cell")
	return nil
}

// float reads a float64 field; null leaves it unchanged.
func (d *replyDecoder) float(dst *float64) {
	if d.literal("null") {
		return
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		d.fail("want a number")
		return
	}
	f, err := strconv.ParseFloat(d.number(), 64)
	if err != nil {
		d.fail("number out of range")
		return
	}
	*dst = f
}

// int reads an int field: an integer literal that fits, or null.
func (d *replyDecoder) int(dst *int) {
	if d.literal("null") {
		return
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		d.fail("want an integer")
		return
	}
	n, err := strconv.ParseInt(d.number(), 10, strconv.IntSize)
	if err != nil {
		d.fail("want an integer")
		return
	}
	*dst = int(n)
}

// skip consumes and checks one value of an unknown key.
func (d *replyDecoder) skip(depth int) {
	if depth >= maxReplyDepth {
		d.fail("nesting too deep")
		return
	}
	switch c := d.peek(); {
	case c == '{':
		d.i++
		var seen uint
		for first := true; d.next('}', first); first = false {
			d.field(nil, &seen)
			d.skip(depth + 1)
		}
	case c == '[':
		d.i++
		for first := true; d.next(']', first); first = false {
			d.skip(depth + 1)
		}
	case c == '"':
		d.str()
	case c == '-' || '0' <= c && c <= '9':
		d.number() // unconverted: 1e400 is valid here
	case !d.literal("null") && !d.literal("true") && !d.literal("false"):
		d.fail("want a value")
	}
}

// number consumes a number in JSON's grammar and returns its text.
func (d *replyDecoder) number() string {
	s, i := d.s, d.i
	digits := func() bool {
		j := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		d.fail("bad number")
		return ""
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			d.fail("bad number")
			return ""
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			d.fail("bad number")
			return ""
		}
	}
	lit := s[d.i:i]
	d.i = i
	return lit
}

// str reads a string. One without escapes, control bytes or invalid
// UTF-8 is a substring of the body; any other is unquote's copy.
func (d *replyDecoder) str() string {
	if d.peek() != '"' {
		d.fail("want a string")
		return ""
	}
	d.i++
	start := d.i
	for d.i < len(d.s) {
		switch c := d.s[d.i]; {
		case c == '"':
			d.i++
			return d.s[start : d.i-1]
		case c == '\\' || c < 0x20:
			return d.unquote(start)
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[d.i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start)
			}
			d.i += size
		}
	}
	d.fail("unterminated string")
	return ""
}

// unquote finishes a string from d.i, start being its first byte, as
// encoding/json does: escapes resolved, a u-escaped surrogate that is
// not half of a pair and each byte of invalid UTF-8 become U+FFFD.
func (d *replyDecoder) unquote(start int) string {
	b := []byte(d.s[start:d.i])
	for d.i < len(d.s) {
		c := d.s[d.i]
		switch {
		case c == '"':
			d.i++
			return string(b)
		case c < 0x20:
			d.fail("control byte in string")
			return ""
		case c == '\\':
			if d.i+1 == len(d.s) {
				d.fail("unterminated string")
				return ""
			}
			switch e := d.s[d.i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := d.hex4(d.i)
				if r < 0 {
					d.fail("bad u-escape")
					return ""
				}
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, d.hex4(d.i+6)); pair != unicode.ReplacementChar {
						r = pair
						d.i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				d.i += 4
			default:
				d.fail("bad escape")
				return ""
			}
			d.i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[d.i:])
			b = utf8.AppendRune(b, r)
			d.i += size
		}
	}
	d.fail("unterminated string")
	return ""
}

// hex4 is the rune of the u-escape at s[i:i+6], or -1 if there is none.
func (d *replyDecoder) hex4(i int) rune {
	if i+6 > len(d.s) || d.s[i] != '\\' || d.s[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range []byte(d.s[i+2 : i+6]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
