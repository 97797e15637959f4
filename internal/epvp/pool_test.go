package epvp

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

// views returns a pool of n views numbered 0..n-1.
func views(n int) Pool[int] {
	p := make(Pool[int], n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TestPoolEachLandsByIndex: every index runs exactly once, inline on view 0
// when the pool has one view, on the pool's own views otherwise, at any
// worker count.
func TestPoolEachLandsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := views(workers)
		out := make([]int32, 100)
		err := p.Each(context.Background(), len(out), func(f int, i int) {
			if f < 0 || f >= workers {
				t.Errorf("workers %d: index %d ran on view %d", workers, i, f)
			}
			atomic.AddInt32(&out[i], 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range out {
			if n != 1 {
				t.Fatalf("workers %d: index %d ran %d times", workers, i, n)
			}
		}
		// A single index is not worth a goroutine: it runs on view 0.
		if err := p.Each(context.Background(), 1, func(f int, i int) {
			if f != 0 {
				t.Errorf("workers %d: the single index ran on view %d, want 0", workers, f)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolEachReraisesWorkerPanic: a panic in one worker goroutine reaches
// the caller's recover — carrying the original value and the worker's stack
// — after the other workers have stopped, instead of ending the process.
func TestPoolEachReraisesWorkerPanic(t *testing.T) {
	p := views(4)
	var ran atomic.Int32
	var got any
	func() {
		defer func() { got = recover() }()
		p.Each(context.Background(), 1000, func(_ int, i int) {
			ran.Add(1)
			if i == 7 {
				panic("poisoned index 7")
			}
		})
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "poisoned index 7") || !strings.Contains(msg, "TestPoolEachReraisesWorkerPanic") {
		t.Fatalf("recovered %q, want the worker's panic value and stack", msg)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("all %d indices ran after a worker panicked", n)
	}
	// The pool is reusable: the next call runs everything.
	ran.Store(0)
	if err := p.Each(context.Background(), 50, func(int, int) { ran.Add(1) }); err != nil || ran.Load() != 50 {
		t.Errorf("Each after a panic: ran %d of 50, err %v", ran.Load(), err)
	}
}

func TestPoolEachStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		p := views(workers)
		var ran atomic.Int32
		// Calls after the 5th wait until cancel has returned: a preempted
		// canceller must not let the other workers run on meanwhile.
		cancelled := make(chan struct{})
		err := p.Each(ctx, 1000, func(_ int, i int) {
			switch n := ran.Add(1); {
			case n == 5:
				cancel()
				close(cancelled)
			case n > 5:
				<-cancelled
			}
		})
		if err != context.Canceled {
			t.Errorf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n > int32(5+workers) {
			t.Errorf("workers %d: %d indices ran after cancellation at the 5th", workers, n)
		}
		cancel()
	}
}
