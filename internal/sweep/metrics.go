package sweep

import (
	"fmt"
	"sync/atomic"
	"time"
)

// metrics is the engine's internal counter block. All fields are updated
// with atomics from worker goroutines.
type metrics struct {
	submitted atomic.Int64
	done      atomic.Int64
	cacheHits atomic.Int64
	wallNanos atomic.Int64
	simCycles atomic.Uint64
}

// Metrics is a point-in-time snapshot of an engine's lifetime counters,
// accumulated across every Run call.
type Metrics struct {
	// Submitted and Done count jobs handed to Run and jobs finished
	// (simulated, served from cache, errored, or skipped after a failure).
	Submitted, Done int64
	// CacheHits counts jobs served from the cache.
	CacheHits int64
	// SimWall is the summed wall-clock time spent inside Run closures
	// (CPU-seconds of simulation, not elapsed time).
	SimWall time.Duration
	// SimCycles sums the simulated device cycles reported by results
	// implementing CycleReporter. Cache hits contribute nothing: nothing
	// was simulated for them.
	SimCycles uint64
}

func (m *metrics) snapshot() Metrics {
	return Metrics{
		Submitted: m.submitted.Load(),
		Done:      m.done.Load(),
		CacheHits: m.cacheHits.Load(),
		SimWall:   time.Duration(m.wallNanos.Load()),
		SimCycles: m.simCycles.Load(),
	}
}

// String renders the one-line summary wnbench prints after a sweep.
func (m Metrics) String() string {
	return fmt.Sprintf("%d jobs (%d simulated, %d cache hits), %d Mcycles simulated in %v",
		m.Done, m.Done-m.CacheHits, m.CacheHits, m.SimCycles/1e6, m.SimWall.Round(time.Millisecond))
}

// Progress is delivered to the engine's OnProgress callback after each job
// completes. Callbacks are serialized by the engine, so they may update
// shared state (a terminal line, a log) without locking.
type Progress struct {
	// Spec identifies the job that just finished.
	Spec Spec
	// Done and Total are engine-lifetime completion counters: jobs
	// finished and jobs submitted so far (Total grows as later studies
	// submit more work).
	Done, Total int64
	// CacheHits is the engine-lifetime hit counter, for "n cached" lines.
	CacheHits int64
}
