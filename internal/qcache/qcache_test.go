package qcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoHitMiss(t *testing.T) {
	var hits, misses atomic.Int64
	c := New(8, 0, Events{Hit: func() { hits.Add(1) }, Miss: func() { misses.Add(1) }})
	ctx := context.Background()

	calls := 0
	load := func() (any, int64, error) { calls++; return "v", 1, nil }

	v, hit, err := c.Do(ctx, "k", load)
	if err != nil || hit || v != "v" {
		t.Fatalf("first Do = %v, %v, %v; want v, false, nil", v, hit, err)
	}
	v, hit, err = c.Do(ctx, "k", load)
	if err != nil || !hit || v != "v" {
		t.Fatalf("second Do = %v, %v, %v; want v, true, nil", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("loader ran %d times, want 1", calls)
	}
	if hits.Load() != 1 || misses.Load() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits.Load(), misses.Load())
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(8, 0, Events{})
	ctx := context.Background()
	boom := errors.New("boom")

	calls := 0
	_, hit, err := c.Do(ctx, "k", func() (any, int64, error) { calls++; return nil, 0, boom })
	if !errors.Is(err, boom) || hit {
		t.Fatalf("Do = hit=%v err=%v; want miss with boom", hit, err)
	}
	v, hit, err := c.Do(ctx, "k", func() (any, int64, error) { calls++; return 7, 1, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry Do = %v, %v, %v; want 7, false, nil", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("loader ran %d times, want 2", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestEntryEviction(t *testing.T) {
	var evicted atomic.Int64
	c := New(2, 0, Events{Evict: func() { evicted.Add(1) }})
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	c.Put("c", 3, 1) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b should still be cached")
	}
	if evicted.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", evicted.Load())
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(2, 0, Events{})
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	c.Get("a")       // a is now MRU
	c.Put("c", 3, 1) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should survive after touch")
	}
}

func TestByteBound(t *testing.T) {
	c := New(100, 10, Events{})
	c.Put("a", 1, 6)
	c.Put("b", 2, 6) // 12 bytes > 10: evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted by byte bound")
	}
	if c.Bytes() != 6 {
		t.Fatalf("Bytes = %d, want 6", c.Bytes())
	}
	// A single oversized entry is kept (Len > 1 guard) so the cache
	// still functions when one result exceeds the whole budget.
	c.Put("huge", 3, 50)
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("oversized entry should be retained while alone")
	}
}

func TestSingleflightSharesOneLoad(t *testing.T) {
	c := New(8, 0, Events{})
	ctx := context.Background()

	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	const workers = 16
	var wg sync.WaitGroup
	results := make([]any, workers)
	hitCount := atomic.Int64{}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(ctx, "k", func() (any, int64, error) {
				calls.Add(1)
				once.Do(func() { close(started) })
				<-release
				return "shared", 1, nil
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			if hit {
				hitCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	<-started
	time.Sleep(20 * time.Millisecond) // let followers queue on the flight
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("loader ran %d times, want 1", calls.Load())
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("worker %d got %v", i, v)
		}
	}
	if hitCount.Load() != workers-1 {
		t.Fatalf("hits = %d, want %d", hitCount.Load(), workers-1)
	}
}

func TestFailedLeaderRetriesAreSingleflighted(t *testing.T) {
	// Regression: when a flight leader failed, every waiter used to re-run
	// fn concurrently with no new flight registered, so a burst of
	// identical queries behind one failed leader stampeded the loader.
	// Now the first waiter to loop back becomes the new leader and the
	// rest share its flight, so fn runs exactly twice: the failing leader
	// and one successful retry.
	c := New(8, 0, Events{})
	ctx := context.Background()

	var calls atomic.Int64
	fail := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	boom := errors.New("boom")
	load := func() (any, int64, error) {
		if calls.Add(1) == 1 {
			once.Do(func() { close(started) })
			<-fail
			return nil, 0, boom
		}
		return "ok", 1, nil
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", load)
		leaderDone <- err
	}()
	<-started

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	results := make([]any, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.Do(ctx, "k", load)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let waiters queue on the leader's flight
	close(fail)
	wg.Wait()

	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v, want boom", err)
	}
	for i := range errs {
		if errs[i] != nil {
			t.Errorf("waiter %d: %v", i, errs[i])
		}
		if results[i] != "ok" {
			t.Errorf("waiter %d got %v, want ok", i, results[i])
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("loader ran %d times, want 2 (failed leader + one single-flighted retry)", n)
	}
}

func TestFollowerCtxCancel(t *testing.T) {
	c := New(8, 0, Events{})
	release := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), "k", func() (any, int64, error) {
		close(started)
		<-release
		return 1, 1, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (any, int64, error) { return 2, 1, nil })
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower did not observe cancellation")
	}
	close(release)
}

func TestNilCache(t *testing.T) {
	var c *Cache
	v, hit, err := c.Do(context.Background(), "k", func() (any, int64, error) { return 42, 1, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("nil Do = %v, %v, %v; want 42, false, nil", v, hit, err)
	}
	c.Put("k", 1, 1)
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache should not store")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("nil cache should report empty")
	}
	c.Purge()
}

func TestPurge(t *testing.T) {
	c := New(8, 0, Events{})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, 10)
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after Purge: Len=%d Bytes=%d, want 0/0", c.Len(), c.Bytes())
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(32, 0, Events{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%40)
				v, _, err := c.Do(ctx, key, func() (any, int64, error) { return key, 8, nil })
				if err != nil {
					t.Errorf("Do(%s): %v", key, err)
					return
				}
				if v != key {
					t.Errorf("Do(%s) = %v", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
