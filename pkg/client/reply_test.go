package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// queryReplySeeds are FuzzQueryReply's committed seeds: replies the
// server writes, and the edges of the JSON a decoder must get right.
func queryReplySeeds() map[string]string {
	return map[string]string{
		"estimate":       `{"groups":[{"group":["A","F","1994-01-02"],"value":1234.5,"bound":12.25,"sample_n":17}],"elapsed_ms":0.5,"cache":"miss"}` + "\n",
		"empty_groups":   `{"groups":[],"elapsed_ms":1.5,"cache":"bypass"}` + "\n",
		"no_group_by":    `{"groups":[{"group":[],"value":3,"bound":0,"sample_n":0}],"elapsed_ms":1}` + "\n",
		"sql_rows":       `{"columns":["l_returnflag","sum(l_quantity)"],"rows":[[0,1.5],[9007199254740993,"1994-06-15"]],"elapsed_ms":2.25}` + "\n",
		"escapes":        `{"columns":["q\"b\\s\/\b\f\n\r\t\u0001\u00e9","\ud83d\ude00","\ud800x","\udc00\ud800","\u2028\u2029"],"elapsed_ms":0}`,
		"floats":         `{"rows":[[1e-7,1e21,-0,5e-324,1.7976931348623157e308,1E+2,0.1e-1]],"elapsed_ms":1e-7}`,
		"null_cells":     `{"columns":["a",null],"rows":[[null,true,false,"x"],null,[]],"groups":[null],"elapsed_ms":null,"cache":null}`,
		"truncated":      `{"groups":[{"group":["A"],"value":1`,
		"trailing_value": `{"elapsed_ms":1} {"elapsed_ms":2}`,
		"any_order":      " {\n \"cache\" : \"hit\" , \"elapsed_ms\" : 3 , \"GROUPS\" : [ { \"sample_n\" : 2 , \"Group\" : [ \"x\" ] , \"extra\" : {\"k\":[1,{\"z\":1e400}]} } ] }\r\n",
		"invalid_utf8":   "{\"columns\":[\"\xff\xfe\xe2\x80\"],\"elapsed_ms\":0}",
		"out_of_range":   `{"rows":[[1e400]],"elapsed_ms":0}`,
		"fractional_n":   `{"groups":[{"group":["a"],"sample_n":1.5}],"elapsed_ms":0}`,
		"repeated_key":   `{"elapsed_ms":1,"elapsed_ms":2}`,
	}
}

// rejectedSeeds are the seeds DecodeQueryResponse refuses: bodies
// encoding/json refuses too, and the repeated key it would merge.
var rejectedSeeds = map[string]bool{"truncated": true, "trailing_value": true, "out_of_range": true, "fractional_n": true, "repeated_key": true}

// sameAsEncodingJSON fails unless DecodeQueryResponse's verdict on body
// is one json.Unmarshal shares, with the same value when it accepts.
func sameAsEncodingJSON(t *testing.T, body []byte) error {
	got, err := DecodeQueryResponse(body)
	if err != nil {
		return err
	}
	var want QueryResponse
	if jerr := json.Unmarshal(body, &want); jerr != nil {
		t.Fatalf("accepted %q, which encoding/json rejects: %v", body, jerr)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("%q decoded to\n%#v\nencoding/json gives\n%#v", body, *got, want)
	}
	return nil
}

// TestDecodeQueryResponseSeeds: every seed is accepted with
// encoding/json's value, or is one of the rejected seeds.
func TestDecodeQueryResponseSeeds(t *testing.T) {
	for name, body := range queryReplySeeds() {
		err := sameAsEncodingJSON(t, []byte(body))
		if (err != nil) != rejectedSeeds[name] {
			t.Errorf("%s: err = %v, want rejected = %v", name, err, rejectedSeeds[name])
		}
	}
}

// FuzzQueryReply: on any bytes DecodeQueryResponse does not panic, and
// whatever it accepts, json.Unmarshal accepts with a deep-equal value.
func FuzzQueryReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		sameAsEncodingJSON(t, body)
	})
}

// TestQueryReplyCorpusIsCurrent: the committed seed corpus of
// FuzzQueryReply is queryReplySeeds. A missing seed is written (commit
// it); a stale one fails, and deleting testdata/fuzz/FuzzQueryReply
// then rerunning regenerates the lot.
func TestQueryReplyCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzQueryReply")
	for name, body := range queryReplySeeds() {
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
			t.Errorf("%s is stale: queryReplySeeds no longer holds this body", path)
		}
	}
}
