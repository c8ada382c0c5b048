// Package client is the Go client for the congressd HTTP/JSON query
// service. It speaks the /v1 API: approximate queries with per-request
// rewrite-strategy and confidence options, exact queries, inserts,
// synopsis listings, and health/metrics probes.
//
//	c := client.New("http://localhost:8642")
//	res, err := c.Query(ctx, client.QueryRequest{
//		SQL: "select region, sum(amount) from sales group by region",
//	})
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/approxdb/congress/internal/estimate"
)

// Client talks to one congressd server. It is safe for concurrent use.
// Every call is exactly one HTTP request: a 429 comes back as an
// *APIError (see IsOverloaded and APIError.RetryAfter), and whether to
// send it again is the caller's decision.
type Client struct {
	base string
	hc   *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transport, TLS, global timeout).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8642"; a trailing slash is tolerated).
func New(baseURL string, opts ...Option) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	c := &Client{base: baseURL, hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response decoded from the server's error
// envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable cause (see ErrorBody.Code).
	Code string
	// Message is the human-readable error text.
	Message string
	// RetryAfter is the server's backoff hint on 429 responses, 0
	// otherwise.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("congressd: %s (http %d, code %s)", e.Message, e.Status, e.Code)
}

// IsOverloaded reports whether err is a 429 shed by admission control;
// the caller should back off for RetryAfter and retry.
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests
}

// Query answers an approximate query (SQL or direct-estimate form). The
// response's Cache field reports whether the server answered from its
// result cache (preferring the X-Congress-Cache header, falling back to
// the body field for older servers).
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	resp, err := c.raw(ctx, http.MethodPost, "/v1/query", req, "")
	if err != nil {
		return nil, err
	}
	out, err := queryReply(resp)
	if err != nil {
		return nil, err
	}
	if h := resp.Header.Get(CacheHeader); h != "" {
		out.Cache = h
	}
	return out, nil
}

// Exact answers a query exactly against the base tables.
func (c *Client) Exact(ctx context.Context, req ExactRequest) (*QueryResponse, error) {
	resp, err := c.raw(ctx, http.MethodPost, "/v1/exact", req, "")
	if err != nil {
		return nil, err
	}
	return queryReply(resp)
}

// queryReply reads a /v1/query or /v1/exact reply whole and decodes it
// with DecodeQueryResponse; a non-2xx reply is an *APIError.
func queryReply(resp *http.Response) (*QueryResponse, error) {
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, decodeError(resp)
	}
	body, err := readSized(resp)
	if err != nil {
		return nil, fmt.Errorf("client: reading query reply: %w", err)
	}
	return DecodeQueryResponse(body)
}

// Insert appends rows to a table (feeding any synopsis maintainer) and
// optionally refreshes the synopsis.
func (c *Client) Insert(ctx context.Context, req InsertRequest) (*InsertResponse, error) {
	var out InsertResponse
	if err := c.do(ctx, http.MethodPost, "/v1/insert", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Partials runs one estimation scan and returns the mergeable
// per-group sufficient statistics — the distributed scatter-gather leg.
// Coordinators merge partials from every shard with
// estimate.MergePartials before taking confidence intervals once.
//
// It always asks for the binary frame and takes JSON when that is what
// comes back (a shard that predates the frame ignores Accept). A frame
// that fails its checks is an error that is not an *APIError — to a
// coordinator, a leg that failed in transit.
func (c *Client) Partials(ctx context.Context, req PartialsRequest) (*PartialsResponse, error) {
	resp, err := c.raw(ctx, http.MethodPost, "/v1/estimate/partials", req,
		estimate.PartialsContentType+", application/json")
	if err != nil {
		return nil, err
	}
	if resp.Header.Get("Content-Type") != estimate.PartialsContentType { // JSON: an older shard, or an error envelope
		body := &countingBody{ReadCloser: resp.Body}
		resp.Body = body
		var out PartialsResponse
		if err := decodeReply(resp, &out); err != nil {
			return nil, err
		}
		out.WireBytes = body.n
		return &out, nil
	}
	defer resp.Body.Close()
	frame, err := readSized(resp)
	if err != nil {
		return nil, fmt.Errorf("client: reading partials frame: %w", err)
	}
	parts, elapsedMS, err := estimate.DecodePartials(frame)
	if err != nil {
		return nil, err
	}
	return &PartialsResponse{Partials: parts, ElapsedMS: elapsedMS, Binary: true, WireBytes: int64(len(frame))}, nil
}

// readSized reads a whole body in one ReadFull when the reply declares
// a plausible Content-Length, and as it arrives otherwise — so a length
// that lies costs an error, never an allocation of that size.
func readSized(resp *http.Response) ([]byte, error) {
	const presizeLimit = 64 << 20
	if n := resp.ContentLength; n >= 0 && n <= presizeLimit {
		b := make([]byte, n)
		_, err := io.ReadFull(resp.Body, b)
		return b, err
	}
	return io.ReadAll(resp.Body)
}

// countingBody counts the bytes read through it.
type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// Synopses lists the registered synopses; withAllocation includes each
// synopsis's full allocation table.
func (c *Client) Synopses(ctx context.Context, withAllocation bool) ([]SynopsisInfo, error) {
	path := "/v1/synopses"
	if withAllocation {
		path += "?allocation=1"
	}
	var out SynopsesResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Synopses, nil
}

// Snapshot asks the server to write a durable snapshot now, compacting
// its WAL. It fails with code "not_persistent" (409) when the server
// runs without a data directory.
func (c *Client) Snapshot(ctx context.Context) (*SnapshotResponse, error) {
	var out SnapshotResponse
	if err := c.do(ctx, http.MethodPost, "/v1/snapshot", struct{}{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the Prometheus-style text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.raw(ctx, http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// ReplStatus fetches the server's replication state: role
// (standalone/leader/follower) plus lag and shipping counters.
func (c *Client) ReplStatus(ctx context.Context) (*ReplStatus, error) {
	var out ReplStatus
	if err := c.do(ctx, http.MethodGet, "/v1/repl/status", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BaseURL returns the server base URL this client talks to.
func (c *Client) BaseURL() string { return c.base }

// Health probes /healthz; nil means the server is accepting requests.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.raw(ctx, http.MethodGet, "/healthz", nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Code: "unhealthy", Message: "health check failed"}
	}
	return nil
}

// do issues one JSON request/response round trip.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.raw(ctx, method, path, in, "")
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}

// decodeReply consumes a JSON reply: a 2xx body decodes into out, any
// other into an *APIError. On success it then reads the body to EOF.
// json.Decoder stops at the end of the value, which on a chunked reply
// leaves the terminating chunk unread, and net/http throws away a
// connection whose body was closed short of EOF — every reply too large
// for the server to send with a Content-Length used to cost a new TCP
// connection.
func decodeReply(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	// The value is already whole: a failed drain only costs the connection.
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// raw sends one request; accept, when non-empty, is the Accept header.
func (c *Client) raw(ctx context.Context, method, path string, in any, accept string) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return c.hc.Do(req)
}

// decodeError turns a non-2xx response into an *APIError, tolerating
// non-JSON bodies from intermediaries.
func decodeError(resp *http.Response) error {
	ae := &APIError{Status: resp.StatusCode, Code: "internal"}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var eb ErrorBody
	if err := json.Unmarshal(b, &eb); err == nil && eb.Error != "" {
		ae.Message = eb.Error
		if eb.Code != "" {
			ae.Code = eb.Code
		}
	} else {
		ae.Message = string(bytes.TrimSpace(b))
		if ae.Message == "" {
			ae.Message = http.StatusText(resp.StatusCode)
		}
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}
