// Package par runs indexed work on a bounded pool of goroutines. Each
// index writes only its own output slot, so results never depend on
// scheduling; it is the one worker pool behind every parallel probe,
// per-file and per-component loop of the repository.
package par

import (
	"runtime"
	"sync"
)

// Each calls fn(i) for every i in [0, n) on up to workers goroutines and
// returns once every started call has. workers <= 0 selects GOMAXPROCS;
// with one worker, or n <= 1, the calls run in index order on the calling
// goroutine. The first error stops new indices from starting and is
// returned.
func Each(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		ferr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if ferr != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return ferr
}

// For is Each for work that cannot fail.
func For(n, workers int, fn func(i int)) {
	_ = Each(n, workers, func(i int) error { fn(i); return nil })
}
