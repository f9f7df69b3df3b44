package flight

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// waitBlocked returns once some caller waits on key's pending entry: the
// first waiter makes the entry's done channel.
func waitBlocked[K comparable, V any](g *Group[K, V], key K) {
	for {
		g.mu.Lock()
		e := g.m[key]
		waiting := e != nil && e.done != nil
		g.mu.Unlock()
		if waiting {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFlightPanicReleasesWaiter(t *testing.T) {
	var g Group[string, int]
	inFn := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan any, 1)
	go func() {
		defer func() { ownerDone <- recover() }()
		g.Do("k", func() (int, error) {
			close(inFn)
			<-release
			panic("boom")
		})
	}()
	<-inFn
	type result struct {
		v   int
		hit bool
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, hit, err := g.Do("k", func() (int, error) { return 9, nil })
		waiter <- result{v, hit, err}
	}()
	waitBlocked(&g, "k")
	close(release)
	if r := <-ownerDone; r != "boom" {
		t.Fatalf("owner recovered %v, want the panic value", r)
	}
	select {
	case r := <-waiter:
		if r.v != 9 || r.hit || r.err != nil {
			t.Fatalf("waiter after panic = %+v, want a recomputed 9", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never released after owner panic")
	}
	if st := g.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want one miss (the waiter's recompute) and no hit", st)
	}
	if v, hit, _ := g.Do("k", func() (int, error) { t.Error("recomputed a ready key"); return 0, nil }); v != 9 || !hit {
		t.Errorf("after recompute: v=%d hit=%v, want cached 9", v, hit)
	}
}

func TestFlightErrorNotCached(t *testing.T) {
	var g Group[int, string]
	boom := errors.New("boom")
	if v, hit, err := g.Do(1, func() (string, error) { return "partial", boom }); !errors.Is(err, boom) || hit || v != "" {
		t.Fatalf("Do = %q, %v, %v; want the error and a zero value", v, hit, err)
	}
	if n := g.Len(); n != 0 {
		t.Fatalf("Len after failure = %d, want 0", n)
	}
	v, hit, err := g.Do(1, func() (string, error) { return "ok", nil })
	if v != "ok" || hit || err != nil {
		t.Fatalf("retry = %q, %v, %v; want a fresh computation", v, hit, err)
	}
	if st := g.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want the failure counted as neither hit nor miss", st)
	}
}

func TestFlightTryClaim(t *testing.T) {
	var g Group[string, int]
	if _, hit, claimed := g.TryClaim("a"); hit || !claimed {
		t.Fatalf("absent key: hit=%v claimed=%v, want a claim", hit, claimed)
	}
	if _, hit, claimed := g.TryClaim("a"); hit || claimed {
		t.Fatalf("claimed key: hit=%v claimed=%v, want busy", hit, claimed)
	}
	g.Withdraw("a")
	if _, hit, claimed := g.TryClaim("a"); hit || !claimed {
		t.Fatalf("withdrawn key: hit=%v claimed=%v, want a fresh claim", hit, claimed)
	}
	waiter := make(chan int, 1)
	go func() {
		v, _, _ := g.Do("a", func() (int, error) { t.Error("waiter computed a claimed key"); return 0, nil })
		waiter <- v
	}()
	waitBlocked(&g, "a")
	g.Fulfill("a", 5)
	if v := <-waiter; v != 5 {
		t.Fatalf("waiter on a claim got %d, want the fulfilled 5", v)
	}
	if v, hit, claimed := g.TryClaim("a"); v != 5 || !hit || claimed {
		t.Fatalf("fulfilled key: v=%d hit=%v claimed=%v, want hit 5", v, hit, claimed)
	}
	if st := g.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", st)
	}
}

func TestFlightLRUEviction(t *testing.T) {
	evicted := map[int]int{}
	g := NewLRU(2, func(k, v int) { evicted[k]++ })
	put := func(k int) {
		if _, _, err := g.Do(k, func() (int, error) { return k * 10, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put(1)
	put(2)
	put(1) // touch: 2 is now least recently used
	if _, _, claimed := g.TryClaim(3); !claimed {
		t.Fatal("could not claim 3")
	}
	put(4) // over the bound: 2 goes, the pending 3 is not counted or evicted
	if got := evicted; len(got) != 1 || got[2] != 1 {
		t.Fatalf("evicted = %v, want exactly key 2 once", got)
	}
	g.Fulfill(3, 30) // 1 is now least recently used
	if got := evicted; len(got) != 2 || got[1] != 1 {
		t.Fatalf("evicted = %v, want keys 2 and 1 once each", got)
	}
	var ready []int
	g.Range(func(k, v int) bool {
		if v != k*10 {
			t.Errorf("Range(%d) = %d", k, v)
		}
		ready = append(ready, k)
		return true
	})
	if len(ready) != 2 {
		t.Errorf("ready entries = %v, want 3 and 4", ready)
	}
	if st := g.Stats(); st.Evicted != 2 {
		t.Errorf("Evicted = %d, want 2", st.Evicted)
	}
}

func TestFlightPutCountsAsHit(t *testing.T) {
	var g Group[string, int]
	if !g.Put("disk", 3) || g.Put("disk", 4) {
		t.Fatal("Put must store an absent key and refuse a present one")
	}
	v, hit, err := g.Do("disk", func() (int, error) { t.Error("recomputed a Put entry"); return 0, nil })
	if v != 3 || !hit || err != nil {
		t.Fatalf("Do on a Put entry = %d, %v, %v; want hit 3", v, hit, err)
	}
	if st := g.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want one hit", st)
	}
}

// TestFlightConcurrentSingleCompute checks that many concurrent requests
// for a few keys compute each key once and count every request once.
func TestFlightConcurrentSingleCompute(t *testing.T) {
	var g Group[int, int]
	const workers, keys, rounds = 8, 4, 50
	var computes [keys]int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := i % keys
				v, _, _ := g.Do(k, func() (int, error) {
					mu.Lock()
					computes[k]++
					mu.Unlock()
					return k + 100, nil
				})
				if v != k+100 {
					t.Errorf("Do(%d) = %d", k, v)
				}
			}
		}()
	}
	wg.Wait()
	for k, n := range computes {
		if n != 1 {
			t.Errorf("key %d computed %d times", k, n)
		}
	}
	if st := g.Stats(); st.Misses != keys || st.Hits != workers*rounds-keys {
		t.Errorf("stats = %+v, want %d misses and %d hits", st, keys, workers*rounds-keys)
	}
}
