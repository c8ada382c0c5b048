package server

import (
	"net/http"
	"strconv"
	"strings"
	"sync"

	congress "github.com/approxdb/congress"
	"github.com/approxdb/congress/internal/engine"
	"github.com/approxdb/congress/internal/estimate"
)

// The /v1/query and /v1/exact reply: client.QueryResponse appended
// straight from the engine result or the estimate groups, byte for byte
// what json.Encoder (HTML escaping off) writes for it, and sent in one
// Write with a Content-Length. Every value goes through the engine's
// one JSON value codec (engine.Value.AppendJSON), so a non-finite float,
// which encoding/json refuses to encode, is null.

// maxPooledReply caps the buffers replyPool keeps: one huge answer must
// not pin its buffer for the life of the process.
const maxPooledReply = 1 << 20

var replyPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// writeQueryReply writes the 200 reply for one answer: res for SQL,
// ests for an estimate (the other nil). cache is the QueryResponse
// Cache field, omitted when empty.
func writeQueryReply(w http.ResponseWriter, res *congress.Result, ests []estimate.GroupEstimate, elapsedMS float64, cache string) {
	p := replyPool.Get().(*[]byte)
	b := appendQueryReply((*p)[:0], res, ests, elapsedMS, cache)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	if cap(b) <= maxPooledReply {
		*p = b
		replyPool.Put(p)
	}
}

// appendQueryReply appends the client.QueryResponse JSON in its field
// order, honouring the omitempty tags, plus Encode's trailing newline.
func appendQueryReply(b []byte, res *congress.Result, ests []estimate.GroupEstimate, elapsedMS float64, cache string) []byte {
	b = append(b, '{')
	if res != nil && len(res.Columns) > 0 {
		b = append(b, `"columns":[`...)
		for i, c := range res.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = engine.NewString(c).AppendJSON(b)
		}
		b = append(b, "],"...)
	}
	if res != nil && len(res.Rows) > 0 {
		b = append(b, `"rows":[`...)
		for i, row := range res.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				b = v.AppendJSON(b)
			}
			b = append(b, ']')
		}
		b = append(b, "],"...)
	}
	if len(ests) > 0 {
		b = append(b, `"groups":[`...)
		for i, g := range ests {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendGroup(append(b, `{"group":`...), g.Key)
			b = engine.NewFloat(g.Value).AppendJSON(append(b, `,"value":`...))
			b = engine.NewFloat(g.Bound).AppendJSON(append(b, `,"bound":`...))
			b = strconv.AppendInt(append(b, `,"sample_n":`...), int64(g.SampleN), 10)
			b = append(b, '}')
		}
		b = append(b, "],"...)
	}
	b = engine.NewFloat(elapsedMS).AppendJSON(append(b, `"elapsed_ms":`...))
	if cache != "" {
		b = engine.NewString(cache).AppendJSON(append(b, `,"cache":`...))
	}
	return append(b, "}\n"...)
}

// appendGroup appends an estimate key as the JSON array
// congress.SplitEstimateKey would give: the empty key (no group-by) is
// [], any other splits on EstimateKeySep.
func appendGroup(b []byte, key string) []byte {
	b = append(b, '[')
	for more := key != ""; more; {
		var part string
		part, key, more = strings.Cut(key, congress.EstimateKeySep)
		if b = engine.NewString(part).AppendJSON(b); more {
			b = append(b, ',')
		}
	}
	return append(b, ']')
}
