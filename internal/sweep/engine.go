package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Runner abstracts "run these jobs, return their encoded results in
// submission order". Engine implements it; a caller that wants to observe
// or wrap each study's jobs (a tracing benchmark harness, say) installs its
// own Runner on the experiment protocol.
type Runner interface {
	Run(jobs []Job) ([]json.RawMessage, error)
}

// Options configures an Engine.
type Options struct {
	// Workers is the pool size; <= 0 selects runtime.NumCPU().
	Workers int
	// Cache, when non-nil, short-circuits jobs whose spec hash it already
	// holds and stores every fresh result.
	Cache Cache
	// OnProgress, when non-nil, is invoked (serialized) after each job.
	OnProgress func(Progress)
}

// Engine runs simulation jobs on a fixed-size worker pool. It is safe for
// sequential reuse across many Run calls (metrics accumulate over its
// lifetime); concurrent Run calls are also safe, each with its own pool.
type Engine struct {
	workers    int
	cache      Cache
	onProgress func(Progress)

	m          metrics
	progressMu sync.Mutex
}

// New builds an engine.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return &Engine{workers: w, cache: opts.Cache, onProgress: opts.OnProgress}
}

// Serial returns a one-worker, uncached engine — the drop-in replacement
// for the old inline experiment loops, and the reference output that any
// parallel configuration must reproduce byte for byte.
func Serial() *Engine { return New(Options{Workers: 1}) }

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// Metrics snapshots the engine's lifetime counters.
func (e *Engine) Metrics() Metrics { return e.m.snapshot() }

// errSkipped marks jobs abandoned because an earlier job failed; it is
// never surfaced to callers.
var errSkipped = errors.New("sweep: skipped after earlier failure")

// Run executes the jobs and returns their encoded results in submission
// order — index i of the returned slice is job i's result, regardless of
// completion order, so output is bit-identical at any worker count. On the
// first job error the remaining queue is drained without simulating and the
// error is returned (wrapped with the job's spec label).
func (e *Engine) Run(jobs []Job) ([]json.RawMessage, error) {
	n := len(jobs)
	if n == 0 {
		return nil, nil
	}
	e.m.submitted.Add(int64(n))

	results := make([]json.RawMessage, n)
	errs := make([]error, n)
	idx := make(chan int)
	var aborted atomic.Bool

	workers := e.workers
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if aborted.Load() {
					errs[i] = errSkipped
					e.m.done.Add(1)
					continue
				}
				raw, err := e.runOne(jobs[i])
				if err != nil {
					errs[i] = err
					aborted.Store(true)
				} else {
					results[i] = raw
				}
				done := e.m.done.Add(1)
				e.notify(Progress{
					Spec:      jobs[i].Spec,
					Done:      done,
					Total:     e.m.submitted.Load(),
					CacheHits: e.m.cacheHits.Load(),
				})
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Report the lowest-index real failure so the error is stable-ish and
	// names the cell that actually broke.
	for i, err := range errs {
		if err != nil && !errors.Is(err, errSkipped) {
			return nil, fmt.Errorf("sweep: job %d (%s): %w", i, jobs[i].Spec, err)
		}
	}
	return results, nil
}

// runOne serves one job from the cache or simulates it and encodes the
// result.
func (e *Engine) runOne(j Job) (json.RawMessage, error) {
	var key string
	if e.cache != nil {
		key = j.Spec.Hash()
		if b, ok := e.cache.Get(key); ok {
			e.m.cacheHits.Add(1)
			return b, nil
		}
	}
	start := time.Now() //wnvet:allow wall-clock metric only, never in results
	v, err := j.Run()
	e.m.wallNanos.Add(int64(time.Since(start))) //wnvet:allow wall-clock metric only, never in results
	if err != nil {
		return nil, err
	}
	if cr, ok := v.(CycleReporter); ok {
		e.m.simCycles.Add(cr.SimulatedCycles())
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	if e.cache != nil {
		// Persistence is best-effort: a failed Put only costs a later miss.
		_ = e.cache.Put(key, raw)
	}
	return raw, nil
}

func (e *Engine) notify(p Progress) {
	if e.onProgress == nil {
		return
	}
	e.progressMu.Lock()
	defer e.progressMu.Unlock()
	e.onProgress(p)
}

// Results decodes a slice of encoded results into typed values — the
// companion of Run for callers that submit homogeneous job lists.
func Results[T any](raws []json.RawMessage) ([]T, error) {
	out := make([]T, len(raws))
	for i, r := range raws {
		if err := json.Unmarshal(r, &out[i]); err != nil {
			return nil, fmt.Errorf("sweep: decode result %d: %w", i, err)
		}
	}
	return out, nil
}
