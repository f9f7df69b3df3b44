package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		hits := make([]atomic.Int32, 100)
		if err := Each(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers %d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestEachStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	if err := Each(1000, 4, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Sequential runs stop at the failing index exactly.
	var ran atomic.Int32
	if err := Each(1000, 1, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) || ran.Load() != 4 {
		t.Fatalf("sequential: err %v after %d calls, want boom after 4", err, ran.Load())
	}
}

func TestForEmpty(t *testing.T) {
	For(0, 8, func(int) { t.Fatal("called for n = 0") })
}
