package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// Sweep runs fn(0), …, fn(n-1) as independent jobs on up to workers
// goroutines and returns once every started job has finished. workers
// follows Options.Workers: 0 (or less) means one per CPU. With one
// worker, or at most one job, the jobs run inline in index order.
//
// Sweep is how the experiment sweeps stay byte-identical at any worker
// count: each job writes only its own results[i], shares nothing but
// read-only inputs, and the caller reduces the indexed results serially
// after Sweep returns.
//
// A panicking job does not kill the process from a worker goroutine:
// the workers stop claiming new jobs, the jobs already running finish,
// and the first panic is re-raised on the caller's goroutine.
func Sweep(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		once     sync.Once
		panicVal any
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					stop.Store(true)
					once.Do(func() { panicVal = p })
				}
			}()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Simulate executes one simulated run straight into a timeline: the
// simulator feeds a trace.Builder event by event, the sink path study
// runs take, so no event log is materialized. Like uesim.Run it runs
// under a background context, which can never abort the run; if it
// somehow does, the timeline would be a torn prefix, so Simulate panics
// instead of returning it.
func Simulate(cfg uesim.Config) *trace.Timeline {
	tb := trace.NewBuilder()
	if err := uesim.RunToContext(context.Background(), cfg, tb); err != nil {
		panic(fmt.Sprintf("campaign: background run aborted: %v", err))
	}
	return tb.Finish()
}
