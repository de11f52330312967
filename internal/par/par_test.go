package par

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{0, 1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		ForEach(w, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", w, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(4, 0, func(int) { called = true })
	if called {
		t.Fatal("fn called for n=0")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	ForEach(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("ForEach returned instead of panicking")
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("non-positive request must resolve to at least one worker")
	}
	if Workers(5) != 5 {
		t.Fatal("positive request must pass through")
	}
}
