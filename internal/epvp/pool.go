package epvp

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is the engine's one fan-out: a fixed set of forks — private BDD op
// caches over the shared node tables — made once and kept for a whole run,
// across EPVP rounds and across SPF's FIB and forwarding phases (SPF's for
// the manager's life: symbolic.Space.SPFForks). Self is the unforked
// original, which runs whatever is not worth fanning out.
type Pool[F any] struct {
	Self  F
	Forks []F // one per worker; none at one worker
}

// NewPool forks once per worker, or not at all when workers <= 1.
func NewPool[F any](workers int, self F, fork func() F) *Pool[F] {
	p := &Pool[F]{Self: self}
	if workers > 1 {
		p.Forks = make([]F, workers)
		for i := range p.Forks {
			p.Forks[i] = fork()
		}
	}
	return p
}

// Each calls fn(f, i) for every i in [0,n), f being the fork of whichever
// worker took i, and returns when all calls have, with ctx's error if it
// was cancelled meanwhile (indices not yet taken are then skipped). fn
// stores its result by index, so what a caller assembles does not depend
// on the worker count or on scheduling. Without forks, or with a single
// index, it runs inline on Self — the sequential reference path.
//
// A panic in a worker goroutine would end the process before any recover
// on the calling goroutine could see it. Each captures it, lets the other
// workers finish the index they hold, and panics again on the caller with
// the original value and the worker's stack.
func (p *Pool[F]) Each(ctx context.Context, n int, fn func(f F, i int)) error {
	if len(p.Forks) == 0 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(p.Self, i)
		}
		return ctx.Err()
	}
	var (
		wg       sync.WaitGroup
		cursor   atomic.Int64
		once     sync.Once
		panicked any
	)
	for _, f := range p.Forks[:min(len(p.Forks), n)] {
		wg.Add(1)
		go func(f F) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					cursor.Store(int64(n))
					once.Do(func() { panicked = fmt.Sprintf("%v [in an engine worker]\n%s", v, debug.Stack()) })
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(f, i)
			}
		}(f)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}
