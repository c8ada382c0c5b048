package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/approxdb/congress/pkg/client"
)

// startServeProc launches the binary in serve mode with the given extra
// flags and returns the process, its bound address, and captured stderr.
func startServeProc(t *testing.T, bin string, extra ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-log-level", "warn"}, extra...)
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "congressd listening on "); ok {
				addrCh <- rest
				return
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("congressd exited before listening:\n%s", stderr.String())
		}
		return cmd, addr, &stderr
	case <-time.After(120 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("congressd did not start listening:\n%s", stderr.String())
	}
	panic("unreachable")
}

func killProc(cmd *exec.Cmd) {
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Signal(syscall.SIGKILL)
		cmd.Wait()
	}
}

// waitCaughtUp polls a follower until it holds the leader's full row
// count AND reports zero lag on /v1/repl/status. Both matter: the
// status lag is computed against the leader position echoed on the
// follower's last poll, which can trail writes that landed since, so
// the row count is the ground truth and the status check then verifies
// the lag accounting agrees.
func waitCaughtUp(t *testing.T, c *client.Client, wantRows int64, what string) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(60 * time.Second)
	for {
		rows := exactCount(t, c)
		st, err := c.ReplStatus(ctx)
		if rows == wantRows && err == nil && st.Role == "follower" && st.CaughtUp && st.LagRecords == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never caught up: rows=%d want=%d status=%+v err=%v", what, rows, wantRows, st, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func estimateGroups(t *testing.T, c *client.Client) []client.GroupEstimate {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := c.Query(ctx, client.QueryRequest{
		Estimate: &client.EstimateRequest{
			Table:   "lineitem",
			GroupBy: []string{"l_returnflag", "l_linestatus"},
			Agg:     "sum",
			Column:  "l_quantity",
		},
		NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Groups) == 0 {
		t.Fatal("estimate returned no groups")
	}
	return resp.Groups
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestReplicationEndToEnd is the replication drill: a real durable
// leader plus two real follower processes, ingest under load, SIGKILL
// and restart one follower mid-stream, then verify both followers catch
// up, answer estimates identical to the leader's, and expose lag
// metrics on /metrics alongside the leader's per-follower view.
func TestReplicationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and kills real congressd processes; skipped in -short")
	}
	bin := buildCongressd(t)
	leaderDir := filepath.Join(t.TempDir(), "leader")

	leaderCmd, leaderAddr, leaderErr := startServeProc(t, bin,
		"-data-dir", leaderDir, "-rows", "3000", "-groups", "30", "-fsync", "none")
	defer killProc(leaderCmd)
	leaderURL := "http://" + leaderAddr
	lc := client.New(leaderURL)
	ctx := context.Background()
	if err := lc.Health(ctx); err != nil {
		t.Fatalf("leader unhealthy: %v\n%s", err, leaderErr.String())
	}

	f1Dir := filepath.Join(t.TempDir(), "f1")
	f2Dir := filepath.Join(t.TempDir(), "f2")
	f1Cmd, f1Addr, _ := startServeProc(t, bin, "-data-dir", f1Dir, "-follow", leaderURL)
	defer killProc(f1Cmd)
	f2Cmd, f2Addr, f2Err := startServeProc(t, bin, "-data-dir", f2Dir, "-follow", leaderURL)
	defer killProc(f2Cmd)
	f1URL, f2URL := "http://"+f1Addr, "http://"+f2Addr

	// Ingest under load while the drill runs.
	rng := rand.New(rand.NewSource(7))
	stop := make(chan struct{})
	acked := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				acked <- n
				return
			default:
			}
			row := []any{
				rng.Int63n(1 << 40), rng.Intn(3), rng.Intn(2),
				fmt.Sprintf("1994-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)),
				float64(1 + rng.Intn(50)), 100 * float64(1+rng.Intn(500)),
			}
			if _, err := lc.Insert(ctx, client.InsertRequest{Table: "lineitem", Rows: [][]any{row}}); err != nil {
				acked <- n
				return
			}
			n++
		}
	}()

	// SIGKILL follower 1 mid-stream and restart it on the same directory:
	// it must resume from its own disk and re-tail.
	time.Sleep(500 * time.Millisecond)
	if err := f1Cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	f1Cmd.Wait()
	time.Sleep(300 * time.Millisecond)
	f1Cmd, f1Addr, _ = startServeProc(t, bin, "-data-dir", f1Dir, "-follow", leaderURL)
	defer killProc(f1Cmd)
	f1URL = "http://" + f1Addr

	time.Sleep(300 * time.Millisecond)
	close(stop)
	ackedN := <-acked
	if ackedN == 0 {
		t.Fatal("no insert was acknowledged during the drill")
	}

	want := exactCount(t, lc)
	f1c, f2c := client.New(f1URL), client.New(f2URL)
	waitCaughtUp(t, f1c, want, "restarted follower 1")
	waitCaughtUp(t, f2c, want, "follower 2")

	// With zero lag both followers answer estimates identical to the
	// leader's.
	lg := estimateGroups(t, lc)
	for name, fc := range map[string]*client.Client{"follower 1": f1c, "follower 2": f2c} {
		fg := estimateGroups(t, fc)
		if len(fg) != len(lg) {
			t.Fatalf("%s: %d groups, leader %d", name, len(fg), len(lg))
		}
		for i := range lg {
			if math.Abs(lg[i].Value-fg[i].Value) > 1e-9 || math.Abs(lg[i].Bound-fg[i].Bound) > 1e-9 {
				t.Fatalf("%s group %v: value %v bound %v, leader %v/%v",
					name, lg[i].Group, fg[i].Value, fg[i].Bound, lg[i].Value, lg[i].Bound)
			}
		}
	}

	// Lag metrics on both sides: followers report their own lag, the
	// leader reports per-follower lag.
	for _, base := range []string{f1URL, f2URL} {
		m := fetchMetrics(t, base)
		for _, want := range []string{"repl_follower_lag_records", `repl_role{role="follower"} 1`} {
			if !strings.Contains(m, want) {
				t.Errorf("follower metrics at %s missing %q", base, want)
			}
		}
	}
	lm := fetchMetrics(t, leaderURL)
	for _, want := range []string{"repl_follower_lag_records{follower=", `repl_role{role="leader"} 1`, "persist_wal_record_seq"} {
		if !strings.Contains(lm, want) {
			t.Errorf("leader metrics missing %q", want)
		}
	}

	// Writes to a follower bounce with the leader hint.
	body, _ := json.Marshal(client.InsertRequest{Table: "lineitem", Rows: [][]any{{int64(1), 1, 0, "1994-06-15", 1.0, 1.0}}})
	resp, err := http.Post(f2URL+"/v1/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Leader") != leaderURL {
		t.Fatalf("follower insert: status %d leader %q, want 503 pointing at %s",
			resp.StatusCode, resp.Header.Get("Leader"), leaderURL)
	}

	// Every node serves reads: the leader and both followers answer the
	// same estimate request.
	for _, base := range []string{leaderURL, f1URL, f2URL} {
		resp, err := client.New(base).Query(ctx, client.QueryRequest{
			Estimate: &client.EstimateRequest{Table: "lineitem", GroupBy: []string{"l_returnflag"}, Agg: "count", Column: "l_quantity"},
			NoCache:  true,
		})
		if err != nil || len(resp.Groups) == 0 {
			t.Fatalf("read via %s: %+v, %v", base, resp, err)
		}
	}

	// Graceful shutdowns all around.
	for _, cmd := range []*exec.Cmd{f1Cmd, f2Cmd} {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("follower graceful shutdown: %v\n%s", err, f2Err.String())
		}
	}
	if err := leaderCmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := leaderCmd.Wait(); err != nil {
		t.Fatalf("leader graceful shutdown: %v\n%s", err, leaderErr.String())
	}
}
