package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/workload"
	"github.com/approxdb/congress/pkg/client"
)

// BenchmarkServerQuery measures one approximate group-by answer through
// the full network stack — JSON encode, HTTP round trip, admission,
// rewrite, execution, JSON decode — the served counterpart of the
// library-level BenchmarkEstimateDirect.
func BenchmarkServerQuery(b *testing.B) {
	w := testWarehouse(b, 50_000, 200)
	_, c := testServer(b, Options{Warehouse: w})
	ctx := context.Background()
	req := client.QueryRequest{SQL: workload.Qg2}
	if _, err := c.Query(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerEstimate is the network-served direct-estimation path
// with confidence bounds.
func BenchmarkServerEstimate(b *testing.B) {
	w := testWarehouse(b, 50_000, 200)
	_, c := testServer(b, Options{Warehouse: w})
	ctx := context.Background()
	req := client.QueryRequest{Estimate: &client.EstimateRequest{
		Table:   "lineitem",
		GroupBy: []string{"l_returnflag", "l_linestatus"},
		Agg:     "sum",
		Column:  "l_quantity",
	}}
	if _, err := c.Query(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryReply is one 1000-group estimate reply (three grouping
// columns, the finest grouping of the benchmark's lineitem), encoded by
// the server and decoded by the client: "append+scan" is
// appendQueryReply plus client.DecodeQueryResponse, "encoding/json" the
// reflection pair they replaced, building []client.GroupEstimate first.
func BenchmarkQueryReply(b *testing.B) {
	ests := make([]estimate.GroupEstimate, 1000)
	for i := range ests {
		ests[i] = estimate.GroupEstimate{
			Key:     strings.Join([]string{"ANR"[i%3 : i%3+1], "FO"[i%2 : i%2+1], fmt.Sprintf("199%d-%02d-%02d", i%8, 1+i%12, 1+i%28)}, congress.EstimateKeySep),
			Value:   123456.789 * float64(i+1) / 7,
			Bound:   1234.5678 / float64(i+1),
			SampleN: 17 + i%5,
		}
	}
	b.Run("append+scan", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendQueryReply(buf[:0], nil, ests, 1.25, "bypass")
			if _, err := client.DecodeQueryResponse(buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding/json", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp := client.QueryResponse{Groups: make([]client.GroupEstimate, len(ests)), ElapsedMS: 1.25, Cache: "bypass"}
			for j, g := range ests {
				resp.Groups[j] = client.GroupEstimate{Group: congress.SplitEstimateKey(g.Key), Value: g.Value, Bound: g.Bound, SampleN: g.SampleN}
			}
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(resp); err != nil {
				b.Fatal(err)
			}
			var out client.QueryResponse
			if err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}
