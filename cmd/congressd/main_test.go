package main

import (
	"strings"
	"testing"
	"time"
)

// TestStrayArgumentIsUsageError: flag parsing stops at the first
// non-flag word, so a mistyped or removed mode name used to be ignored
// along with everything after it and a default server came up on
// :8642. Both spellings must fail before anything is built or bound.
func TestStrayArgumentIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"bogus"},
		{"loadgen", "-self", "-clients", "4"},
	} {
		var out strings.Builder
		done := make(chan error, 1)
		go func() { done <- runServe(args, &out) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "usage: congressd") {
				t.Errorf("%v: err = %v, want a usage error", args, err)
			} else if args[0] == "loadgen" && !strings.Contains(err.Error(), "bench/run.sh") {
				t.Errorf("%v: %v does not point at bench/run.sh", args, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%v: still running after 30s; output so far %q", args, out.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q; a listener was opened", args, out.String())
		}
	}
}

func TestSplitCSV(t *testing.T) {
	got := splitCSV(" a, b ,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
