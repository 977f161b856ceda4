package campaign

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mssn/loopscope/internal/deploy"
	"github.com/mssn/loopscope/internal/policy"
	"github.com/mssn/loopscope/internal/trace"
	"github.com/mssn/loopscope/internal/uesim"
)

// TestSweepRunsEveryIndexOnce checks that each index runs exactly once
// for empty, single and many-job sweeps, with the worker count unset,
// negative, one, below the job count and above it.
func TestSweepRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 97} {
		for _, workers := range []int{-1, 0, 1, 3, 200} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				hits := make([]atomic.Int32, n)
				Sweep(workers, n, func(i int) { hits[i].Add(1) })
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times, want 1", i, got)
					}
				}
			})
		}
	}
}

// TestSweepRunsInlineOnOneWorker checks that one worker runs the jobs
// on the caller's goroutine, in index order.
func TestSweepRunsInlineOnOneWorker(t *testing.T) {
	var order []int
	Sweep(1, 5, func(i int) { order = append(order, i) })
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("order = %v, want [0 1 2 3 4]", order)
	}
}

// TestSweepUsesSeveralWorkers checks that jobs really overlap when more
// than one worker is allowed: two jobs each wait for the other to start.
func TestSweepUsesSeveralWorkers(t *testing.T) {
	var started sync.WaitGroup
	started.Add(2)
	done := make(chan struct{})
	go func() {
		Sweep(2, 2, func(int) {
			started.Done()
			started.Wait()
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("two jobs on two workers never ran at the same time")
	}
}

// TestSweepReraisesPanicOnCaller checks that a panicking job surfaces
// on the caller's goroutine with its original value, and only after
// every other running job has finished: no worker is left behind.
func TestSweepReraisesPanicOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var running atomic.Int32
			boom := fmt.Errorf("job 5 failed")
			p := func() (p any) {
				defer func() { p = recover() }()
				Sweep(workers, 40, func(i int) {
					running.Add(1)
					defer running.Add(-1)
					if i == 5 {
						panic(boom)
					}
					time.Sleep(time.Millisecond)
				})
				return nil
			}()
			if p != boom {
				t.Fatalf("recovered %v, want the job's panic value %v", p, boom)
			}
			if n := running.Load(); n != 0 {
				t.Errorf("%d jobs still running after Sweep re-raised", n)
			}
		})
	}
}

// TestSimulateMatchesRun checks that Simulate's direct timeline is the
// one uesim.Run's event log extracts to.
func TestSimulateMatchesRun(t *testing.T) {
	op := policy.OPT()
	dep := deploy.Build(op, deploy.AreasFor("OPT")[0], 43)
	cfg := uesim.Config{Op: op, Field: dep.Field, Cluster: dep.Clusters[0], Duration: 2 * time.Minute, Seed: 11}
	want := trace.FromLog(uesim.Run(cfg).Log)
	if got := Simulate(cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("Simulate: %d steps over %v, want %d over %v", len(got.Steps), got.Duration, len(want.Steps), want.Duration)
	}
}
