package epvp

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is the engine's one fan-out: one view per worker over a BDD
// manager's kept workers (bdd.Manager.Workers) — private op caches over
// the shared node tables, kept for the manager's life — on which EPVP
// rounds, the external export and SPF's FIB and forwarding phases all fan
// out, so every run over a manager (a pinned baseline's deltas) finds the
// op caches earlier ones filled. Index 0 is the caller's own, over the
// manager's default worker: the engine itself in EPVP, a view of eng.Space
// in SPF.
type Pool[F any] []F

// Each calls fn(f, i) for every i in [0,n), f being the view of whichever
// worker took i, and returns when all calls have, with ctx's error if it
// was cancelled meanwhile (indices not yet taken are then skipped). fn
// stores its result by index, so what a caller assembles does not depend
// on the worker count or on scheduling. With one view, or a single index,
// it runs inline on view 0 — the sequential reference path.
//
// A panic in a worker goroutine would end the process before any recover
// on the calling goroutine could see it. Each captures it, lets the other
// workers finish the index they hold, and panics again on the caller with
// the original value and the worker's stack.
func (p Pool[F]) Each(ctx context.Context, n int, fn func(f F, i int)) error {
	if len(p) == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(p[0], i)
		}
		return ctx.Err()
	}
	var (
		wg       sync.WaitGroup
		cursor   atomic.Int64
		once     sync.Once
		panicked any
	)
	for _, f := range p[:min(len(p), n)] {
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
