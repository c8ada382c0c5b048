package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/approxdb/congress/internal/estimate"
	"github.com/approxdb/congress/internal/interval"
)

// replyJSON writes body the way the server's writeJSON does: streamed
// through an Encoder with no Content-Length, so anything past net/http's
// 2 KiB write buffer goes out chunked, and with Encode's trailing newline.
func replyJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

func somePartials(n int) []estimate.GroupPartial {
	parts := make([]estimate.GroupPartial, n)
	for i := range parts {
		parts[i] = estimate.GroupPartial{Key: fmt.Sprintf("g%04d", i), Moments: interval.Moments{N: i, ScaledSum: float64(i) * 1.5, Lo: 1, Hi: 2}}
	}
	return parts
}

// TestConnectionSurvivesEveryReplySize: sequential calls on one client
// share one TCP connection whatever the reply's size and encoding. The
// client used to stop reading at the end of the JSON value, so a chunked
// (large) reply was closed before its terminator and net/http discarded
// the connection: one dial per 1000-group reply.
func TestConnectionSurvivesEveryReplySize(t *testing.T) {
	query := func(groups int) http.HandlerFunc {
		resp := QueryResponse{Groups: make([]GroupEstimate, groups)}
		for i := range resp.Groups {
			resp.Groups[i] = GroupEstimate{Group: []string{fmt.Sprintf("g%04d", i), "N", "O"}, Value: float64(i) * 1.25, Bound: 0.5, SampleN: 17}
		}
		return func(w http.ResponseWriter, r *http.Request) { replyJSON(w, resp) }
	}
	callQuery := func(c *Client) error {
		_, err := c.Query(context.Background(), QueryRequest{Estimate: &EstimateRequest{Table: "t", Agg: "sum", Column: "v"}})
		return err
	}
	callPartials := func(c *Client) error {
		resp, err := c.Partials(context.Background(), PartialsRequest{Table: "t", Column: "v"})
		if err == nil && len(resp.Partials) != 1000 {
			err = fmt.Errorf("%d partials, want 1000", len(resp.Partials))
		}
		return err
	}
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		call    func(*Client) error
	}{
		{"query/10 groups", query(10), callQuery},
		{"query/100 groups", query(100), callQuery},
		{"query/1000 groups", query(1000), callQuery},
		{"partials/json", func(w http.ResponseWriter, r *http.Request) {
			replyJSON(w, PartialsResponse{Partials: somePartials(1000)})
		}, callPartials},
		{"partials/binary", func(w http.ResponseWriter, r *http.Request) {
			frame := estimate.EncodePartials(somePartials(1000), 1)
			w.Header().Set("Content-Type", estimate.PartialsContentType)
			w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
			w.Write(frame)
		}, callPartials},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dials atomic.Int32
			hs := httptest.NewUnstartedServer(tc.handler)
			hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
				if st == http.StateNew {
					dials.Add(1)
				}
			}
			hs.Start()
			defer hs.Close()
			c := New(hs.URL)
			for i := 0; i < 20; i++ {
				if err := tc.call(c); err != nil {
					t.Fatal(err)
				}
			}
			if n := dials.Load(); n != 1 {
				t.Errorf("20 sequential calls opened %d connections, want 1", n)
			}
		})
	}
}

// TestPartialsNegotiation: Partials asks for the binary frame and reads
// whichever encoding answers; a frame that fails its checks is an error,
// and not one that looks like the shard's own verdict (*APIError).
func TestPartialsNegotiation(t *testing.T) {
	want := somePartials(3)
	var mode atomic.Value // "json", "binary" or "corrupt"
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got, want := r.Header.Get("Accept"), estimate.PartialsContentType+", application/json"; got != want {
			t.Errorf("Accept %q, want %q", got, want)
		}
		if mode.Load() == "json" {
			replyJSON(w, PartialsResponse{Partials: want, ElapsedMS: 2.5})
			return
		}
		frame := estimate.EncodePartials(want, 2.5)
		if mode.Load() == "corrupt" {
			frame[len(frame)/2] ^= 1
		}
		w.Header().Set("Content-Type", estimate.PartialsContentType)
		w.Write(frame)
	}))
	defer hs.Close()
	c := New(hs.URL)
	for _, m := range []string{"json", "binary"} {
		mode.Store(m)
		resp, err := c.Partials(context.Background(), PartialsRequest{Table: "t", Column: "v"})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(resp.Partials) != len(want) || resp.Partials[2] != want[2] || resp.ElapsedMS != 2.5 {
			t.Errorf("%s: decoded %+v", m, resp)
		}
		if resp.Binary != (m == "binary") || resp.WireBytes <= 0 {
			t.Errorf("%s: Binary=%v WireBytes=%d", m, resp.Binary, resp.WireBytes)
		}
	}
	mode.Store("corrupt")
	_, err := c.Partials(context.Background(), PartialsRequest{Table: "t", Column: "v"})
	var ae *APIError
	if err == nil || errors.As(err, &ae) {
		t.Fatalf("corrupt frame: err = %v, want a non-API error", err)
	}
}
