package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/tpcd"
	"github.com/approxdb/congress/pkg/client"
)

// oracleReply is the reply as the server used to encode it: res and ests
// converted to client.QueryResponse (JSONValue cells, SplitEstimateKey
// groups) and written by json.Encoder with HTML escaping off.
func oracleReply(t testing.TB, res *congress.Result, ests []estimate.GroupEstimate, elapsedMS float64, cache string) []byte {
	t.Helper()
	resp := client.QueryResponse{ElapsedMS: elapsedMS, Cache: cache}
	if res != nil {
		resp.Columns = res.Columns
		resp.Rows = make([][]any, len(res.Rows))
		for i, r := range res.Rows {
			resp.Rows[i] = make([]any, len(r))
			for j, v := range r {
				resp.Rows[i][j] = v.JSONValue()
			}
		}
	}
	for _, g := range ests {
		resp.Groups = append(resp.Groups, client.GroupEstimate{
			Group: congress.SplitEstimateKey(g.Key), Value: g.Value, Bound: g.Bound, SampleN: g.SampleN,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replyVariants are the elapsed_ms and cache values every reply is
// encoded with: cache present and absent, floats in both notations.
var replyVariants = []struct {
	elapsedMS float64
	cache     string
}{
	{0, ""}, {1.25, "miss"}, {0.000123, "hit"}, {1e-7, "bypass"}, {3.0000000000000004, ""}, {1e21, "miss"},
}

// everyKindResult holds a value of every engine.Kind, each edge of the
// float format, integers past 2^53, and strings that need escaping.
func everyKindResult() *congress.Result {
	cols := []string{"flag", `q"b\s`, "ctl\x00\x01\x1f\x7f", "<html>&amp;", "ls\u2028ps\u2029", "bad\xffutf8\xc3", "emoji \U0001F600", ""}
	vals := []engine.Value{
		engine.Null, engine.NewBool(true), engine.NewBool(false),
		engine.NewInt(0), engine.NewInt(-1), engine.NewInt(1<<53 + 1), engine.NewInt(math.MaxInt64), engine.NewInt(math.MinInt64),
		engine.NewFloat(0), engine.NewFloat(math.Copysign(0, -1)), engine.NewFloat(1e-7), engine.NewFloat(1e-6),
		engine.NewFloat(9.999999999999999e-7), engine.NewFloat(1e20), engine.NewFloat(1e21), engine.NewFloat(123.456),
		engine.NewFloat(5e-324), engine.NewFloat(math.MaxFloat64), engine.NewFloat(-1.5e-300), engine.NewFloat(1.0 / 3),
		engine.NewFloat(-2.5e-10), engine.NewFloat(1e100),
		engine.NewString(""), engine.NewString("plain"), engine.NewString("tab\tnl\ncr\rbs\bff\f"),
		engine.NewString(`quote" back\ slash/`), engine.NewString("\x00\x1f\u2028\u2029\xff\xfe\xed\xa0\x80 ok"),
		engine.NewString("<script>&</script>"), engine.NewString("日本語 \U0001F600"),
		engine.NewDate(0), engine.MustParseDate("1994-06-15"), engine.NewDate(-1), engine.MustParseDate("2999-12-31"),
	}
	res := &congress.Result{Columns: cols}
	for len(vals) > 0 {
		n := min(len(cols), len(vals))
		res.Rows = append(res.Rows, vals[:n])
		vals = vals[n:]
	}
	return res
}

// TestQueryReplyMatchesEncodingJSON: the appended reply is byte for byte
// what encoding/json wrote for the same answer — estimate groups for
// every grouping of the warehouse (the no-group-by key included), SQL
// rows of every kind, and empty answers — so curl users and older
// clients see no change.
func TestQueryReplyMatchesEncodingJSON(t *testing.T) {
	w := testWarehouse(t, 3000, 27)
	ctx := context.Background()
	check := func(label string, res *congress.Result, ests []estimate.GroupEstimate) {
		t.Helper()
		for _, v := range replyVariants {
			got := appendQueryReply(nil, res, ests, v.elapsedMS, v.cache)
			if want := oracleReply(t, res, ests, v.elapsedMS, v.cache); !bytes.Equal(got, want) {
				t.Errorf("%s (elapsed %v, cache %q):\n got %s\nwant %s", label, v.elapsedMS, v.cache, got, want)
			}
		}
	}
	attrs := tpcd.GroupingAttrs
	for mask := 0; mask < 1<<len(attrs); mask++ {
		var grouping []string
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				grouping = append(grouping, a)
			}
		}
		for _, agg := range []estimate.Aggregate{estimate.Sum, estimate.Count, estimate.Avg} {
			for _, noHybrid := range []bool{false, true} {
				ests, _, err := w.EstimateQueryOpts(ctx, "lineitem", grouping, agg, "l_quantity", 0.9,
					congress.ApproxOptions{NoCache: true, NoHybrid: noHybrid})
				if err != nil {
					t.Fatal(err)
				}
				check(strings.Join(grouping, ",")+"/"+agg.String(), nil, ests)
			}
		}
	}
	check("every kind", everyKindResult(), nil)
	check("no rows", &congress.Result{Columns: []string{"a"}}, nil)
	check("no columns", &congress.Result{Rows: []congress.Row{{}, {engine.NewInt(1)}}}, nil)
	check("nothing", nil, nil)
	check("empty estimate", nil, []estimate.GroupEstimate{})
	for _, sql := range []string{
		"select l_returnflag, l_shipdate, sum(l_quantity), avg(l_extendedprice), count(*) from lineitem group by l_returnflag, l_shipdate",
		"select l_id, l_shipdate, l_quantity from lineitem where l_id < 40",
	} {
		res, err := w.QueryCtx(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		check(sql, res, nil)
		if res, _, err = w.ApproxQuery(ctx, sql, congress.ApproxOptions{NoCache: true}); err == nil {
			check("approx "+sql, res, nil)
		}
	}
}

// TestQueryReplyRoundTrip: every reply the encoder writes for random
// groups and rows decodes, through client.DecodeQueryResponse, to the
// answer it was built from: numbers as float64, dates and strings as
// text (invalid UTF-8 byte by byte as U+FFFD), a non-finite float as
// null, which leaves a group's value or bound 0.
func TestQueryReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "Z", "0", " ", `"`, `\`, "/", "\n", "\x00", "\x1e", "\x7f", "é", "\u2028", "\U0001F600", "\xff", "\xe2\x80", "<&>"}
	randString := func() string {
		var sb strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	randFloat := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 5e-324, math.MaxFloat64}[rng.Intn(7)]
		case 1:
			return math.Float64frombits(rng.Uint64())
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
	}
	finiteOr := func(f float64, alt any) any {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return alt
		}
		return f
	}
	valid := func(s string) string { return string([]rune(s)) }
	for iter := 0; iter < 300; iter++ {
		var res *congress.Result
		var ests []estimate.GroupEstimate
		want := client.QueryResponse{ElapsedMS: math.Abs(randFloat())}
		if math.IsInf(want.ElapsedMS, 0) || math.IsNaN(want.ElapsedMS) {
			want.ElapsedMS = 1
		}
		if rng.Intn(2) == 0 {
			want.Cache = []string{"hit", "miss", "bypass"}[rng.Intn(3)]
		}
		if rng.Intn(2) == 0 {
			res = &congress.Result{}
			for n := rng.Intn(4); n > 0; n-- {
				c := randString()
				res.Columns = append(res.Columns, c)
				want.Columns = append(want.Columns, valid(c))
			}
			for n := rng.Intn(5); n > 0; n-- {
				row, wantRow := congress.Row{}, []any{}
				for m := rng.Intn(5); m > 0; m-- {
					var v engine.Value
					var cell any
					switch rng.Intn(6) {
					case 0:
						v, cell = engine.Null, nil
					case 1:
						v = engine.NewBool(rng.Intn(2) == 0)
						cell = v.I != 0
					case 2:
						v = engine.NewInt(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
						cell = float64(v.I)
					case 3:
						v = engine.NewFloat(randFloat())
						cell = finiteOr(v.F, nil)
					case 4:
						v = engine.NewString(randString())
						cell = valid(v.S)
					default:
						v = engine.NewDate(int64(rng.Intn(40000) - 5000))
						cell = v.String()
					}
					row, wantRow = append(row, v), append(wantRow, cell)
				}
				res.Rows = append(res.Rows, row)
				want.Rows = append(want.Rows, wantRow)
			}
		} else {
			for n := rng.Intn(6); n > 0; n-- {
				parts := make([]string, rng.Intn(4))
				for i := range parts {
					parts[i] = strings.ReplaceAll(randString(), congress.EstimateKeySep, "")
				}
				g := estimate.GroupEstimate{Key: strings.Join(parts, congress.EstimateKeySep), Value: randFloat(), Bound: math.Abs(randFloat()), SampleN: rng.Intn(1000)}
				if len(parts) == 1 && parts[0] == "" {
					parts = nil // the key "" is the no-group-by group
				}
				wantGroup := client.GroupEstimate{Group: []string{}, SampleN: g.SampleN}
				for _, p := range parts {
					wantGroup.Group = append(wantGroup.Group, valid(p))
				}
				wantGroup.Value = finiteOr(g.Value, 0.0).(float64)
				wantGroup.Bound = finiteOr(g.Bound, 0.0).(float64)
				ests = append(ests, g)
				want.Groups = append(want.Groups, wantGroup)
			}
		}
		body := appendQueryReply(nil, res, ests, want.ElapsedMS, want.Cache)
		got, err := client.DecodeQueryResponse(body)
		if err != nil {
			t.Fatalf("iteration %d: %v\n%s", iter, err, body)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("iteration %d: decoded\n%#v\nwant\n%#v\nfrom %s", iter, *got, want, body)
		}
	}
}

// TestNonFiniteCellIsNull: a SQL cell that overflows to ±Inf is null in
// a whole reply on both SQL routes. encoding/json refused the value, and
// the server answered 200 with an empty body the client could not read.
func TestNonFiniteCellIsNull(t *testing.T) {
	_, c := testServer(t, Options{Warehouse: testWarehouse(t, 2000, 20)})
	ctx := context.Background()
	const sql = "select l_returnflag, sum(l_extendedprice * 1e308) from lineitem group by l_returnflag"
	for route, call := range map[string]func() (*client.QueryResponse, error){
		"/v1/query": func() (*client.QueryResponse, error) {
			return c.Query(ctx, client.QueryRequest{SQL: sql, NoCache: true})
		},
		"/v1/exact": func() (*client.QueryResponse, error) { return c.Exact(ctx, client.ExactRequest{SQL: sql}) },
	} {
		resp, err := call()
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if len(resp.Rows) == 0 {
			t.Fatalf("%s: no rows", route)
		}
		for _, row := range resp.Rows {
			if len(row) != 2 || row[1] != nil {
				t.Errorf("%s: row %v, want the overflowed sum as null", route, row)
			}
		}
	}
}

// TestQueryReplyHasContentLength: the query reply goes out in one piece
// with its length declared, never chunked.
func TestQueryReplyHasContentLength(t *testing.T) {
	_, c := testServer(t, Options{Warehouse: testWarehouse(t, 5000, 300)})
	body := `{"estimate":{"table":"lineitem","group_by":["l_returnflag","l_linestatus","l_shipdate"],"agg":"sum","column":"l_quantity"}}`
	resp, err := http.Post(c.BaseURL()+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(buf.Len()) || len(resp.TransferEncoding) != 0 || buf.Len() < 4096 {
		t.Errorf("status %d, Content-Length %d, Transfer-Encoding %v, body %d bytes", resp.StatusCode, resp.ContentLength, resp.TransferEncoding, buf.Len())
	}
}
