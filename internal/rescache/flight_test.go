package rescache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes — the flight
// tests line goroutines up on observable state, never on sleeps alone.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// registeredOnce installs a Barrier that closes the returned channel when
// the first leader has registered its flight.
func registeredOnce(c *Cache) <-chan struct{} {
	registered := make(chan struct{})
	var once sync.Once
	c.Barrier = func(string) { once.Do(func() { close(registered) }) }
	return registered
}

// TestDoCoalesces: concurrent Do calls on one cold key run fn once and hand
// every caller the same payload; exactly one caller leads, the rest are
// coalesced, and the payload is cached for the next caller.
func TestDoCoalesces(t *testing.T) {
	c := New(4)
	registered := registeredOnce(c)
	block := make(chan struct{})
	var calls atomic.Int64
	fn := func() ([]byte, error) {
		calls.Add(1)
		<-block
		return []byte("payload"), nil
	}
	const followers = 4
	var wg sync.WaitGroup
	outcomes := make([]Outcome, followers+1)
	results := make([][]byte, followers+1)
	errs := make([]error, followers+1)
	call := func(i int) {
		defer wg.Done()
		results[i], outcomes[i], errs[i] = c.Do(context.Background(), "k", "ds", fn, nil)
	}
	wg.Add(1)
	go call(0)
	<-registered
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go call(i)
	}
	waitFor(t, "followers to park", func() bool { return c.Waiting("k") == followers })
	close(block)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	leads := 0
	for i := range results {
		if errs[i] != nil || string(results[i]) != "payload" {
			t.Fatalf("caller %d got (%q, %v), want the shared payload", i, results[i], errs[i])
		}
		switch outcomes[i] {
		case Led:
			leads++
		case Coalesced:
		default:
			t.Fatalf("caller %d outcome %d, want Led or Coalesced", i, outcomes[i])
		}
	}
	if leads != 1 {
		t.Fatalf("%d callers led, want exactly 1", leads)
	}
	// One counted miss per caller that reached the flight; the leader's
	// re-check is uncounted. The stored payload now serves a counted hit.
	if st := c.Stats(); st.Hits != 0 || st.Misses != followers+1 {
		t.Fatalf("stats %+v, want 0 hits / %d misses", st, followers+1)
	}
	if p, o, err := c.Do(context.Background(), "k", "ds", fn, nil); err != nil || o != Hit || string(p) != "payload" {
		t.Fatalf("straggler got (%q, %d, %v), want a Hit", p, o, err)
	}
	if calls.Load() != 1 {
		t.Fatal("straggler re-ran fn")
	}
}

// TestDoFollowerCancelDetaches: a follower whose own context dies returns
// its ctx error immediately while the leader keeps running and completes
// for everyone else.
func TestDoFollowerCancelDetaches(t *testing.T) {
	c := New(4)
	registered := registeredOnce(c)
	block := make(chan struct{})
	leaderRes := make(chan error, 1)
	go func() {
		payload, o, err := c.Do(context.Background(), "k", "ds", func() ([]byte, error) {
			<-block
			return []byte("ok"), nil
		}, nil)
		if o != Led || err != nil || string(payload) != "ok" {
			leaderRes <- errors.New("leader did not complete normally")
			return
		}
		leaderRes <- nil
	}()
	<-registered
	ctx, cancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	var waited atomic.Int64
	go func() {
		_, o, err := c.Do(ctx, "k", "ds", func() ([]byte, error) {
			return nil, errors.New("follower must not execute")
		}, func() { waited.Add(1) })
		if o != Coalesced {
			followerErr <- fmt.Errorf("follower outcome %d, want Coalesced", o)
			return
		}
		followerErr <- err
	}()
	waitFor(t, "follower to park", func() bool { return c.Waiting("k") == 1 })
	cancel()
	if err := <-followerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
	}
	if waited.Load() != 1 {
		t.Fatalf("onWait ran %d times, want 1", waited.Load())
	}
	// The leader must still be alive and complete untouched.
	close(block)
	if err := <-leaderRes; err != nil {
		t.Fatal(err)
	}
}

// TestDoLeaderCancelRetries: a follower handed a leader's cancellation
// (wrapped, as the serving layer wraps post-charge failures) does not
// inherit it — it contends for a fresh flight and executes. The failed
// flight stores nothing.
func TestDoLeaderCancelRetries(t *testing.T) {
	c := New(4)
	registered := registeredOnce(c)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	go func() {
		_, _, _ = c.Do(leaderCtx, "k", "ds", func() ([]byte, error) {
			<-leaderCtx.Done()
			return nil, fmt.Errorf("leader aborted: %w", leaderCtx.Err())
		}, nil)
	}()
	<-registered
	type result struct {
		payload []byte
		outcome Outcome
		err     error
	}
	got := make(chan result, 1)
	go func() {
		payload, o, err := c.Do(context.Background(), "k", "ds", func() ([]byte, error) {
			return []byte("fresh"), nil
		}, nil)
		got <- result{payload, o, err}
	}()
	waitFor(t, "follower to park", func() bool { return c.Waiting("k") == 1 })
	cancelLeader()
	res := <-got
	if res.err != nil || res.outcome != Led || string(res.payload) != "fresh" {
		t.Fatalf("retrying follower got (%q, %d, %v), want to lead a fresh flight", res.payload, res.outcome, res.err)
	}
}

// TestDoBypass: a nil cache or an empty key runs fn directly, every time,
// and stores nothing.
func TestDoBypass(t *testing.T) {
	var calls int
	fn := func() ([]byte, error) { calls++; return []byte("x"), nil }
	var nilCache *Cache
	if p, o, err := nilCache.Do(context.Background(), "k", "ds", fn, nil); err != nil || o != Bypass || string(p) != "x" {
		t.Fatalf("nil cache: (%q, %d, %v)", p, o, err)
	}
	c := New(4)
	for i := 0; i < 2; i++ {
		if p, o, err := c.Do(context.Background(), "", "ds", fn, nil); err != nil || o != Bypass || string(p) != "x" {
			t.Fatalf("empty key: (%q, %d, %v)", p, o, err)
		}
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3", calls)
	}
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("bypass touched the cache: %+v", st)
	}
}

// TestDoLeaderRecheckFindsStoredPayload: a leader whose key was stored
// between its counted miss and its flight registration serves the stored
// payload without running fn, and the re-check leaves the counters alone.
func TestDoLeaderRecheckFindsStoredPayload(t *testing.T) {
	c := New(4)
	c.Barrier = func(key string) { c.Put(key, "ds", []byte("stored")) }
	p, o, err := c.Do(context.Background(), "k", "ds", func() ([]byte, error) {
		return nil, errors.New("fn must not run")
	}, nil)
	if err != nil || o != Led || string(p) != "stored" {
		t.Fatalf("got (%q, %d, %v), want the stored payload as leader", p, o, err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats %+v, want only the counted miss", st)
	}
}
