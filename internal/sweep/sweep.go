// Package sweep is the deterministic parallel experiment runner.
//
// Every paper figure is produced by running many independent simulated
// drives (replications × speeds × strategies). Each such unit of work is
// a pure function of its inputs and a seed, so the sweep engine fans
// them out across a worker pool while guaranteeing *bit-identical*
// output at any worker count:
//
//   - Results land in an index-ordered slice, so completion order —
//     the only thing scheduling can perturb — never reaches a caller.
//   - No unit of work shares a *rand.Rand. Randomness is derived per
//     task from a splitmix64-style hash of (base seed, experiment ID,
//     replication index) via TaskSeed/RNG, so task i draws the same
//     stream whether it runs first, last, or alone.
//   - A panicking task is recovered into a *PanicError carrying the
//     task index and stack, failing the sweep with a usable message
//     instead of crashing the process.
//   - Cancellation is context-based: the first failure cancels the
//     sweep's context, and unstarted tasks are skipped.
//
// The engine is the substrate under internal/expt and the -workers flag
// of cmd/spider-exp and cmd/spider-sim, and the seam for any future
// sharded or multi-backend scaling.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Mix is the SplitMix64 finalizer: a bijective avalanche mix, so
// distinct (seed, id, rep) triples yield well-separated streams even for
// adjacent inputs. Archive fingerprints and IDs share it.
func Mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// TaskSeed derives the RNG seed for replication rep of the experiment
// (or sub-sweep) named id, from the user-visible base seed. The mapping
// is pure and documented so published results can cite exact
// reproduction commands: seed = mix(mix(mix(base) ^ fnv64a(id)) ^ rep).
func TaskSeed(base int64, id string, rep int) int64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime
	}
	x := Mix(uint64(base))
	x = Mix(x ^ h)
	x = Mix(x ^ uint64(rep))
	return int64(x)
}

// RNG returns a fresh rand.Rand seeded with TaskSeed(base, id, rep).
// Each task must call this (or receive the seed) itself; sharing the
// returned stream across tasks forfeits the determinism guarantee.
func RNG(base int64, id string, rep int) *rand.Rand {
	return rand.New(rand.NewSource(TaskSeed(base, id, rep)))
}

// Workers resolves a worker-count option: n if positive, otherwise
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a task panic converted to an error.
type PanicError struct {
	Index int    // replication index of the panicking task
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// runOne executes one task with panic recovery.
func runOne[T any](ctx context.Context, i int, task func(context.Context, int) (T, error)) (out T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Index: i, Value: p, Stack: debug.Stack()}
		}
	}()
	return task(ctx, i)
}

// RunN runs task(ctx, i) for i in [0, n) across a pool of workers
// (Workers(workers) goroutines) and returns the n results in index
// order, regardless of completion order.
//
// On the first task error the sweep's context is cancelled: running
// tasks see ctx.Err() and unstarted tasks are skipped. The returned
// error is the lowest-indexed task failure, wrapped with its index —
// deterministic because indices are claimed in ascending order, so
// every index below the first failure has already run to completion.
func RunN[T any](ctx context.Context, workers, n int, task func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	results := make([]T, n)
	errs := make([]error, n)

	if w == 1 {
		// Sequential fast path: no goroutines, same semantics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			var err error
			results[i], err = runOne(ctx, i, task)
			if err != nil {
				errs[i] = err
				break
			}
		}
		return results, firstError(errs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				var err error
				results[i], err = runOne(ctx, i, task)
				if err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	return results, firstError(errs)
}

// firstError returns the lowest-indexed genuine failure, preferring real
// task errors over the cancellation markers of skipped tasks.
func firstError(errs []error) error {
	var skipped error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if skipped == nil {
				skipped = fmt.Errorf("sweep: task %d skipped: %w", i, err)
			}
			continue
		}
		return fmt.Errorf("sweep: task %d: %w", i, err)
	}
	return skipped
}

// Map runs f over every element of in across the worker pool and
// returns the outputs in input order. It is RunN with in[i] threaded
// through.
func Map[In, Out any](ctx context.Context, workers int, in []In, f func(ctx context.Context, i int, v In) (Out, error)) ([]Out, error) {
	return RunN(ctx, workers, len(in), func(ctx context.Context, i int) (Out, error) {
		return f(ctx, i, in[i])
	})
}

// Reduce runs task for i in [0, n) across the worker pool and folds the
// results IN INDEX ORDER into acc. Because the fold happens after the
// sweep, on the index-ordered slice, the accumulated value is identical
// at any worker count even when fold is not commutative — this is how
// per-task metric snapshots and result logs aggregate deterministically.
//
// The index order is also the explicit tie-break for folds that key
// results (maps, named metric merges): when two tasks produce the same
// key, the HIGHER index wins under last-write-wins folds and the LOWER
// index's entry is the "first occurrence" under first-wins folds —
// never whichever task finished last on the clock. Archive equality
// across worker counts depends on this.
func Reduce[T, A any](ctx context.Context, workers, n int,
	task func(ctx context.Context, i int) (T, error),
	acc A, fold func(A, T) A) (A, error) {
	results, err := RunN(ctx, workers, n, task)
	if err != nil {
		return acc, err
	}
	for _, r := range results {
		acc = fold(acc, r)
	}
	return acc, nil
}
