package corpus_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
)

func key(i int) corpus.Key {
	return corpus.Key{FP: corpus.Fingerprint{Count: i, Points: i, Hash: uint64(i)}, Measure: "m", Band: "b"}
}

// put builds v under k unless k is resident.
func put(c *corpus.Cache, k corpus.Key, v any) {
	c.GetOrBuildCtx(context.Background(), k, func(context.Context) (any, error) { return v, nil })
}

// errMiss is the probe build's error; errors are not cached, so a probe
// leaves the cache's entries and their order as it found them on a miss.
var errMiss = errors.New("miss")

// get returns k's resident value, promoting it as any hit does.
func get(c *corpus.Cache, k corpus.Key) (any, bool) {
	v, err := c.GetOrBuildCtx(context.Background(), k, func(context.Context) (any, error) { return nil, errMiss })
	return v, err == nil
}

func TestCacheLRUEviction(t *testing.T) {
	c := corpus.NewCache(3)
	for i := 1; i <= 4; i++ {
		put(c, key(i), i)
	}
	if _, ok := get(c, key(1)); ok {
		t.Fatalf("oldest entry survived eviction")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// Resident from least to most recently used: 2, 3, 4, so each new
	// entry evicts them in that order.
	for want := 2; want <= 4; want++ {
		put(c, key(10+want), 0)
		if _, ok := get(c, key(want)); ok {
			t.Fatalf("entry %d survived as the least recently used", want)
		}
	}
}

func TestCacheGetPromotes(t *testing.T) {
	c := corpus.NewCache(2)
	put(c, key(1), 1)
	put(c, key(2), 2)
	if _, ok := get(c, key(1)); !ok {
		t.Fatalf("entry 1 missing")
	}
	put(c, key(3), 3) // must evict 2, not the just-touched 1
	if _, ok := get(c, key(2)); ok {
		t.Fatalf("recently-used entry evicted instead of LRU")
	}
	if v, ok := get(c, key(1)); !ok || v.(int) != 1 {
		t.Fatalf("promoted entry lost: %v %v", v, ok)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 4 || st.Builds != 3 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 4 misses, 3 builds, 1 eviction", st)
	}
}

// Same-shape corpora fingerprint differently, so their cache keys never
// alias even with identical measure and band strings.
func TestCacheKeysDoNotAliasAcrossContent(t *testing.T) {
	a := corpus.FingerprintOf(testSeries(20, 8, 32))
	b := corpus.FingerprintOf(testSeries(21, 8, 32))
	c := corpus.NewCache(4)
	put(c, corpus.Key{FP: a, Measure: "dtw", Band: "tuned"}, "A")
	put(c, corpus.Key{FP: b, Measure: "dtw", Band: "tuned"}, "B")
	if st := c.Stats(); st.Builds != 2 {
		t.Fatalf("same-shape corpora collapsed to one entry: %d builds", st.Builds)
	}
	if v, _ := get(c, corpus.Key{FP: a, Measure: "dtw", Band: "tuned"}); v.(string) != "A" {
		t.Fatalf("wrong value for corpus A: %v", v)
	}
	if v, _ := get(c, corpus.Key{FP: b, Measure: "dtw", Band: "tuned"}); v.(string) != "B" {
		t.Fatalf("wrong value for corpus B: %v", v)
	}
}

func TestGetOrBuildBuildsOnce(t *testing.T) {
	c := corpus.NewCache(4)
	var builds atomic.Int64
	var wg sync.WaitGroup
	const workers = 16
	out := make([]any, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v, err := c.GetOrBuildCtx(context.Background(), key(1), func(context.Context) (any, error) {
				builds.Add(1)
				return "built", nil
			})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
			out[w] = v
		}(w)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("builder ran %d times, want 1", builds.Load())
	}
	for w, v := range out {
		if v.(string) != "built" {
			t.Fatalf("worker %d got %v", w, v)
		}
	}
	if st := c.Stats(); st.Builds != 1 {
		t.Fatalf("stats.Builds = %d, want 1", st.Builds)
	}
}

func TestGetOrBuildErrorNotCached(t *testing.T) {
	c := corpus.NewCache(4)
	boom := errors.New("boom")
	calls := 0
	build := func(context.Context) (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, err := c.GetOrBuildCtx(context.Background(), key(1), build); !errors.Is(err, boom) {
		t.Fatalf("first call: %v, want boom", err)
	}
	if _, ok := get(c, key(1)); ok {
		t.Fatalf("error was cached")
	}
	v, err := c.GetOrBuildCtx(context.Background(), key(1), build)
	if err != nil || v.(string) != "ok" {
		t.Fatalf("retry after error: %v, %v", v, err)
	}
}

func TestGetOrBuildConcurrentDistinctKeys(t *testing.T) {
	c := corpus.NewCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				k := key(i % 8)
				v, err := c.GetOrBuildCtx(context.Background(), k, func(context.Context) (any, error) {
					return fmt.Sprintf("v%d", k.FP.Count), nil
				})
				if err != nil || v.(string) != fmt.Sprintf("v%d", k.FP.Count) {
					t.Errorf("worker %d: key %d got %v, %v", w, k.FP.Count, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Builds != 8 {
		t.Fatalf("builds = %d, want 8", st.Builds)
	}
}

func TestGetOrBuildWaiterCancelled(t *testing.T) {
	c := corpus.NewCache(4)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.GetOrBuildCtx(context.Background(), key(1), func(context.Context) (any, error) {
			close(started)
			<-release
			return "slow", nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.GetOrBuildCtx(ctx, key(1), func(context.Context) (any, error) {
		t.Error("waiter must not run the builder")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	close(release)
}

// waitingCtx closes waiting the first time Done is called. In
// GetOrBuildCtx only a caller waiting on another's build calls Done, so a
// test can act once that caller is parked on the build.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx(parent context.Context) *waitingCtx {
	return &waitingCtx{Context: parent, waiting: make(chan struct{})}
}

func (w *waitingCtx) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

// TestGetOrBuildPanicReleasesKey: a panicking build fails the caller
// waiting on it, panics on its own goroutine, and leaves the key free for
// the next build instead of parked in flight forever.
func TestGetOrBuildPanicReleasesKey(t *testing.T) {
	c := corpus.NewCache(4)
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		c.GetOrBuildCtx(context.Background(), key(1), func(context.Context) (any, error) {
			close(started)
			<-release
			panic("build failed")
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	waiter := newWaitingCtx(ctx)
	waiterErr := make(chan error)
	go func() {
		_, err := c.GetOrBuildCtx(waiter, key(1), func(context.Context) (any, error) {
			return nil, errors.New("waiter ran its own build")
		})
		waiterErr <- err
	}()
	<-waiter.waiting
	close(release)
	if r := <-recovered; r != "build failed" {
		t.Fatalf("winner's goroutine recovered %v, want the build's panic", r)
	}
	if err := <-waiterErr; err == nil || ctx.Err() != nil {
		t.Fatalf("waiter on the panicked build returned %v (own ctx: %v)", err, ctx.Err())
	}
	v, err := c.GetOrBuildCtx(ctx, key(1), func(context.Context) (any, error) { return "rebuilt", nil })
	if err != nil || v != "rebuilt" {
		t.Fatalf("build after a panicked one: %v, %v", v, err)
	}
}

// TestGetOrBuildWaiterOutlivesCancelledBuild: the winner's cancellation is
// not the waiter's; a waiter with a live ctx gets a value, not
// context.Canceled.
func TestGetOrBuildWaiterOutlivesCancelledBuild(t *testing.T) {
	c := corpus.NewCache(4)
	winCtx, cancelWin := context.WithCancel(context.Background())
	defer cancelWin()
	started := make(chan struct{})
	winErr := make(chan error)
	go func() {
		_, err := c.GetOrBuildCtx(winCtx, key(1), func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		winErr <- err
	}()
	<-started
	waiter := newWaitingCtx(context.Background())
	go func() {
		<-waiter.waiting
		cancelWin()
	}()
	v, err := c.GetOrBuildCtx(waiter, key(1), func(context.Context) (any, error) { return "built", nil })
	if err != nil || v != "built" {
		t.Fatalf("waiter with a live ctx got %v, %v; want the value", v, err)
	}
	if err := <-winErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled winner returned %v, want context.Canceled", err)
	}
}
