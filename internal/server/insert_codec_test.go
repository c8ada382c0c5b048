package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/pkg/client"
)

// TestInsertKeepsIntegersExact: an INTEGER above 2^53 is stored exactly
// on every backend — a single warehouse, in-process shards, and shard
// processes behind a coordinator, which decodes the row and encodes it
// again for the leg. One that does not fit in 64 bits, or that has a
// fraction, is a 400 that inserted nothing.
func TestInsertKeepsIntegersExact(t *testing.T) {
	const exact = 9007199254740993 // 2^53 + 1: as a float64 it reads 9007199254740992
	const readBack = "select l_id from lineitem where l_id > 9007199254740000"
	ctx := context.Background()
	row := func(key any) []any { return []any{key, 0, 0, "1994-06-15", 7.0, 1200.0} }
	for _, f := range backendFixtures(t, 500) {
		_, c := testServer(t, f.opts)
		before := f.numRows(t)
		for _, bad := range []any{json.Number("9223372036854775808"), json.Number("-9223372036854775809"), 1.5, json.Number("1e400")} {
			_, err := c.Insert(ctx, client.InsertRequest{Table: "lineitem", Rows: [][]any{row(bad)}})
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Message, "(0 rows inserted)") {
				t.Errorf("%s: l_id %v: err %v, want 400 (0 rows inserted)", f.name, bad, err)
			}
		}
		if after := f.numRows(t); after != before {
			t.Errorf("%s: rejected keys changed the row count %d -> %d", f.name, before, after)
		}
		if _, err := c.Insert(ctx, client.InsertRequest{Table: "lineitem", Rows: [][]any{row(int64(exact))}}); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		var got []congress.Value
		for _, w := range f.engines {
			res, err := w.QueryCtx(ctx, readBack)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				got = append(got, r[0])
			}
		}
		if len(got) != 1 || got[0] != congress.I(exact) {
			t.Errorf("%s: stored %v, want [%d]", f.name, got, exact)
		}
		if f.opts.Warehouse == nil {
			continue
		}
		// The reply carries the stored value exactly, too.
		body, _ := json.Marshal(client.ExactRequest{SQL: readBack})
		resp, err := http.Post(c.BaseURL()+"/v1/exact", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Contains(reply, []byte(fmt.Sprintf("[[%d]]", exact))) {
			t.Errorf("%s: /v1/exact replied %s, want the row [%d]", f.name, reply, exact)
		}
	}
}

// insertBodySeeds are FuzzInsertBody's committed seeds: the row codec's
// edge cases against lineitem (l_id, l_returnflag, l_linestatus
// INTEGER; l_shipdate DATE; l_quantity, l_extendedprice FLOAT).
func insertBodySeeds() map[string]string {
	row := func(vals string) string { return `{"table":"lineitem","rows":[[` + vals + `]]}` }
	return map[string]string{
		"valid":          row(`9000001,0,0,"1994-06-15",7.0,1200.0`),
		"int_2p53_plus1": row(`9007199254740993,0,0,"1994-06-15",7,1200`),
		"int_overflow":   row(`9223372036854775808,0,0,"1994-06-15",7,1200`),
		"int_fraction":   row(`1.5,0,0,"1994-06-15",7,1200`),
		"int_exponent":   row(`1e3,0,0,"1994-06-15",7,1200`),
		"negative_zero":  row(`-0,-0,0,"1994-06-15",-0,-0.0`),
		"float_overflow": row(`1,0,0,"1994-06-15",1e400,1`),
		"date_string":    row(`1,0,0,"2024-02-29",7,1200`),
		"date_invalid":   row(`1,0,0,"1994-13-45",7,1200`),
		"nulls":          row(`null,null,null,null,null,null`),
		"short_row":      row(`1,0,0`),
		"wrong_types":    row(`"1",true,[],{},7,"x"`),
		"two_rows":       `{"table":"lineitem","rows":[[1,0,0,"1994-06-15",7,1],[2,1,1,"1995-01-01",3,2]],"refresh":true}`,
		"refresh_only":   `{"table":"lineitem","rows":[],"refresh":true}`,
		"unknown_table":  `{"table":"nosuch","rows":[[1]]}`,
		"not_json":       `{"table":`,
	}
}

// FuzzInsertBody: whatever bytes arrive at /v1/insert, the server does
// not panic, never answers 5xx, and a 200 reports every row of the
// request inserted — the whole batch is decoded and checked before any
// row is applied.
func FuzzInsertBody(f *testing.F) {
	h := New(Options{Warehouse: testWarehouse(f, 500, 9), Logger: quietLogger()}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/insert", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var req client.InsertRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var resp client.InsertResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Inserted != len(req.Rows) {
			t.Fatalf("inserted %d of %d rows", resp.Inserted, len(req.Rows))
		}
	})
}

// TestInsertBodyCorpusIsCurrent: the committed seed corpus of
// FuzzInsertBody is insertBodySeeds. A missing seed is written (commit
// it); a stale one fails, and deleting testdata/fuzz/FuzzInsertBody
// then rerunning regenerates the lot.
func TestInsertBodyCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzInsertBody")
	for name, body := range insertBodySeeds() {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
		got, err := os.ReadFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%s was missing; wrote it — commit it", path)
		case err != nil:
			t.Fatal(err)
		case string(got) != want:
			t.Errorf("%s is stale: insertBodySeeds no longer holds this body", path)
		}
	}
}
