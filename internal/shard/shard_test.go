package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRouterValidation(t *testing.T) {
	if _, err := NewRouter(0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewRouter(-3); err == nil {
		t.Error("negative shards accepted")
	}
	r, err := NewRouter(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Route("anything"); got != 0 {
		t.Errorf("single-shard route = %d", got)
	}
}

func TestRouterDeterministicAndInRange(t *testing.T) {
	r, _ := NewRouter(5)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("group-%d", i)
		a, b := r.Route(key), r.Route(key)
		if a != b {
			t.Fatalf("key %q routed to %d then %d", key, a, b)
		}
		if a < 0 || a >= 5 {
			t.Fatalf("key %q routed out of range: %d", key, a)
		}
	}
}

// TestRouterBalanceChiSquare checks that FNV-1a routing spreads group
// keys evenly: a chi-square goodness-of-fit statistic over the shard
// occupancy counts must stay below the 99.9% critical value, for every
// shard count the differential tests exercise.
func TestRouterBalanceChiSquare(t *testing.T) {
	// chi-square 0.999 quantiles for k-1 degrees of freedom.
	critical := map[int]float64{2: 10.83, 4: 16.27, 8: 24.32, 16: 39.25}
	const keys = 100_000
	for _, k := range []int{2, 4, 8, 16} {
		r, _ := NewRouter(k)
		counts := make([]int, k)
		for i := 0; i < keys; i++ {
			counts[r.Route(fmt.Sprintf("g\x1f%d\x1f%d", i, i%977))]++
		}
		expected := float64(keys) / float64(k)
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		if chi2 > critical[k] {
			t.Errorf("k=%d: chi2 = %.2f exceeds 99.9%% critical %.2f (counts %v)", k, chi2, critical[k], counts)
		}
	}
}

func TestFanoutOrdersResultsByShard(t *testing.T) {
	out, err := Fanout(context.Background(), 8, func(ctx context.Context, shard int) (int, error) {
		// Finish in reverse order to prove ordering is by ordinal, not
		// completion.
		time.Sleep(time.Duration(8-shard) * time.Millisecond)
		return shard * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*10 {
			t.Fatalf("out[%d] = %d, want %d (full: %v)", i, v, i*10, out)
		}
	}
}

func TestFanoutPropagatesFirstRealError(t *testing.T) {
	boom := errors.New("shard 3 exploded")
	var canceled atomic.Int32
	_, err := Fanout(context.Background(), 6, func(ctx context.Context, shard int) (int, error) {
		if shard == 3 {
			return 0, boom
		}
		select {
		case <-ctx.Done():
			canceled.Add(1)
			return 0, ctx.Err()
		case <-time.After(2 * time.Second):
			return shard, nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the shard-3 failure (cancellation must not mask it)", err)
	}
	if canceled.Load() == 0 {
		t.Error("sibling legs were not canceled after the failure")
	}
}

func TestFanoutParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fanout(ctx, 4, func(ctx context.Context, shard int) (int, error) {
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTelemetryRender(t *testing.T) {
	tel := NewTelemetry(2)
	tel.AddInserts(0, 7)
	tel.AddInserts(1, 3)
	tel.ObserveFanout(1, 5*time.Millisecond)
	tel.FanoutError(0)
	var sb strings.Builder
	tel.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"congress_distshard_count 2\n",
		`congress_distshard_inserts_total{shard="0"} 7`,
		`congress_distshard_inserts_total{shard="1"} 3`,
		`congress_distshard_fanout_errors_total{shard="0"} 1`,
		`congress_distshard_fanout_seconds_count{shard="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Unobserved histograms render as explicit zero series — scrape
	// targets must see every per-shard series from the first scrape.
	if !strings.Contains(out, `congress_distshard_fanout_seconds_count{shard="0"} 0`) {
		t.Errorf("unobserved shard-0 histogram must render an explicit zero series:\n%s", out)
	}
	if !strings.Contains(out, `congress_distshard_fanout_retries_total{shard="0"} 0`) {
		t.Errorf("retry counters must render even at zero:\n%s", out)
	}
	// Out-of-range and nil receivers must be inert.
	tel.AddInserts(9, 1)
	tel.ObserveFanout(-1, time.Second)
	var nilTel *Telemetry
	nilTel.AddInserts(0, 1)
	nilTel.Render(&sb)
	if nilTel.Shards() != 0 || nilTel.Inserts(0) != 0 {
		t.Error("nil telemetry must read as zero")
	}
}

// TestFanoutDeadlineDoesNotMaskRealError is the regression test for the
// root-cause-masking fix: when the parent deadline fires while a
// higher-ordinal leg's real failure is still propagating, the
// lower-ordinal leg's context.DeadlineExceeded must not win error
// selection. Against the pre-fix loop — which broke on the first
// non-Canceled error — this test fails with err = DeadlineExceeded.
func TestFanoutDeadlineDoesNotMaskRealError(t *testing.T) {
	boom := errors.New("shard 1 exploded")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	leg0done := make(chan struct{})
	_, err := Fanout(ctx, 2, func(ctx context.Context, shard int) (int, error) {
		if shard == 0 {
			// Returns DeadlineExceeded the moment the parent deadline
			// fires, then releases leg 1.
			<-ctx.Done()
			defer close(leg0done)
			return 0, ctx.Err()
		}
		// Leg 1 reports the real failure strictly after leg 0 has already
		// recorded its deadline error, so ordinal selection alone would
		// pick leg 0.
		<-leg0done
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the shard-1 failure (deadline expiry must not mask it)", err)
	}
}

// TestFanoutAllDeadline: when deadline expiry is the only failure, it is
// still returned — the exclusion applies only while a real error exists.
func TestFanoutAllDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := Fanout(ctx, 3, func(ctx context.Context, shard int) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestTelemetryRenderConcurrent hammers every counter from concurrent
// observers while Render runs — the race detector polices the atomics —
// then verifies that once writers quiesce, repeated renders are
// byte-identical (determinism) and reflect the exact totals written.
func TestTelemetryRenderConcurrent(t *testing.T) {
	tel := NewTelemetry(4)
	const (
		writers = 8
		perW    = 500
	)
	var wg, scraperWG sync.WaitGroup
	stop := make(chan struct{})
	scraperWG.Add(1)
	go func() { // concurrent scraper
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			tel.Render(&sb)
			if !strings.Contains(sb.String(), "congress_distshard_count 4\n") {
				t.Error("mid-flight render lost the shard count")
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				s := (w + i) % 4
				tel.AddInserts(s, 2)
				tel.ObserveFanout(s, time.Duration(i)*time.Microsecond)
				tel.FanoutError(s)
				tel.AddRetry(s)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scraperWG.Wait()

	var a, b strings.Builder
	tel.Render(&a)
	tel.Render(&b)
	if a.String() != b.String() {
		t.Error("renders of a quiesced state differ")
	}
	out := a.String()
	var inserts int64
	for s := 0; s < 4; s++ {
		inserts += tel.Inserts(s)
	}
	errs := int64(writers * perW)
	retries := int64(writers * perW)
	obs := int64(writers * perW)
	if inserts != int64(writers*perW*2) {
		t.Errorf("inserts total %d, want %d", inserts, writers*perW*2)
	}
	var seenErr, seenRetry, seenObs int64
	for s := 0; s < 4; s++ {
		seenErr += expositionValue(t, out, fmt.Sprintf(`congress_distshard_fanout_errors_total{shard="%d"}`, s))
		seenRetry += expositionValue(t, out, fmt.Sprintf(`congress_distshard_fanout_retries_total{shard="%d"}`, s))
		seenObs += expositionValue(t, out, fmt.Sprintf(`congress_distshard_fanout_seconds_count{shard="%d"}`, s))
	}
	if seenErr != errs || seenRetry != retries || seenObs != obs {
		t.Errorf("rendered totals errors=%d retries=%d observations=%d, want %d each", seenErr, seenRetry, seenObs, errs)
	}
}

// expositionValue extracts the integer value of the series whose
// rendered line starts with prefix.
func expositionValue(t *testing.T, exposition, prefix string) int64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			var v int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, prefix+" "), "%d", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not rendered:\n%s", prefix, exposition)
	return 0
}
