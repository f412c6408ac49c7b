package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeResult is a deterministic stand-in for a simulation result.
type fakeResult struct {
	Index  int
	Value  int64
	Cycles uint64
}

func (r fakeResult) SimulatedCycles() uint64 { return r.Cycles }

// fakeJob derives its result purely from its seed, like a real seeded
// simulation cell.
func fakeJob(i int) Job {
	seed := int64(1000 + i)
	return Job{
		Spec: Spec{
			Experiment: "fake",
			Kernel:     fmt.Sprintf("k%d", i%7),
			TraceSeed:  seed,
			InputSeed:  int64(i),
		},
		Run: func() (any, error) {
			rng := rand.New(rand.NewSource(seed))
			var v int64
			for j := 0; j < 100+i%13; j++ {
				v += rng.Int63n(1000)
			}
			return fakeResult{Index: i, Value: v, Cycles: uint64(100 + i)}, nil
		},
	}
}

func fakeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = fakeJob(i)
	}
	return jobs
}

// TestRunOrderAndDeterminism: results come back in submission order and are
// byte-identical at every worker count.
func TestRunOrderAndDeterminism(t *testing.T) {
	const n = 200
	ref, err := Serial().Run(fakeJobs(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != n {
		t.Fatalf("%d results, want %d", len(ref), n)
	}
	for i, raw := range ref {
		want := fmt.Sprintf(`{"Index":%d,`, i)
		if !bytes.HasPrefix(raw, []byte(want)) {
			t.Fatalf("result %d out of order: %s", i, raw)
		}
	}
	for _, workers := range []int{2, 4, 8, 16} {
		got, err := New(Options{Workers: workers}).Run(fakeJobs(n))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if !bytes.Equal(ref[i], got[i]) {
				t.Fatalf("workers=%d: result %d differs:\nserial:   %s\nparallel: %s",
					workers, i, ref[i], got[i])
			}
		}
	}
}

// TestSpecHashStable: the hash is stable across map insertion orders,
// distinguishes distinct specs, and survives a round trip.
func TestSpecHashStable(t *testing.T) {
	a := Spec{Experiment: "x", Kernel: "k", TraceSeed: 3,
		Params: map[string]string{"alpha": "1", "beta": "2", "gamma": "3"}}
	b := Spec{Experiment: "x", Kernel: "k", TraceSeed: 3,
		Params: map[string]string{"gamma": "3", "beta": "2", "alpha": "1"}}
	if a.Hash() != b.Hash() {
		t.Error("hash must not depend on Params insertion order")
	}
	c := a
	c.TraceSeed = 4
	if a.Hash() == c.Hash() {
		t.Error("distinct trace seeds must hash differently")
	}
	d := a
	d.Params = map[string]string{"alpha": "1", "beta": "2", "gamma": "4"}
	if a.Hash() == d.Hash() {
		t.Error("distinct params must hash differently")
	}
	if len(a.Hash()) != 64 {
		t.Errorf("hash length %d, want 64 hex chars", len(a.Hash()))
	}
}

// TestCacheHit: a second run against the same cache simulates nothing and
// returns identical bytes.
func TestCacheHit(t *testing.T) {
	cache := NewMemoryCache()
	jobs := fakeJobs(30)
	e1 := New(Options{Workers: 4, Cache: cache})
	first, err := e1.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if m := e1.Metrics(); m.CacheHits != 0 {
		t.Fatalf("cold cache: hits=%d", m.CacheHits)
	}
	var ran atomic.Int32
	rejobs := fakeJobs(30)
	for i := range rejobs {
		run := rejobs[i].Run
		rejobs[i].Run = func() (any, error) { ran.Add(1); return run() }
	}
	e2 := New(Options{Workers: 4, Cache: cache})
	second, err := e2.Run(rejobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("warm cache simulated %d jobs, want 0", n)
	}
	if m := e2.Metrics(); m.CacheHits != 30 {
		t.Errorf("warm cache: hits=%d", m.CacheHits)
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("cached result %d differs", i)
		}
	}
}

// TestDiskCacheRoundTrip: results persist across engine (process) lifetimes
// and a fresh DiskCache on the same directory serves them.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(Options{Workers: 2, Cache: c1})
	first, err := e1.Run(fakeJobs(10))
	if err != nil {
		t.Fatal(err)
	}
	// A new cache instance on the same dir models a second process.
	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Options{Workers: 2, Cache: c2})
	second, err := e2.Run(fakeJobs(10))
	if err != nil {
		t.Fatal(err)
	}
	if m := e2.Metrics(); m.CacheHits != 10 {
		t.Errorf("disk cache hits=%d, want 10", m.CacheHits)
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("disk-cached result %d differs", i)
		}
	}
	if got, ok := c2.Get("../../../etc/passwd"); ok {
		t.Errorf("invalid key must miss, got %q", got)
	}
}

// TestErrorPropagation: a failing job surfaces its spec in the error and
// the engine drains the rest of the queue without wedging.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("supply browned out")
	jobs := fakeJobs(50)
	jobs[17].Run = func() (any, error) { return nil, boom }
	_, err := New(Options{Workers: 4}).Run(jobs)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error chain lost the cause: %v", err)
	}
	m := New(Options{Workers: 4})
	jobs = fakeJobs(50)
	jobs[0].Run = func() (any, error) { return nil, boom }
	if _, err := m.Run(jobs); err == nil {
		t.Fatal("want error")
	}
	if snap := m.Metrics(); snap.Done != 50 {
		t.Errorf("done=%d, want all 50 accounted (simulated or skipped)", snap.Done)
	}
}

// TestProgressAndMetrics: every job produces exactly one progress event,
// callbacks are serialized, and the counters add up.
func TestProgressAndMetrics(t *testing.T) {
	var mu sync.Mutex
	var events int
	var lastDone int64
	e := New(Options{
		Workers: 8,
		OnProgress: func(p Progress) {
			// The engine serializes callbacks; mu guards the test's own
			// variables against the final read below.
			mu.Lock()
			events++
			lastDone = p.Done
			mu.Unlock()
		},
	})
	if _, err := e.Run(fakeJobs(64)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if events != 64 {
		t.Errorf("%d progress events, want 64", events)
	}
	if lastDone != 64 {
		t.Errorf("last Done=%d, want 64", lastDone)
	}
	m := e.Metrics()
	if m.Submitted != 64 || m.Done != 64 {
		t.Errorf("metrics %+v", m)
	}
	if m.SimCycles == 0 {
		t.Error("SimCycles not accounted from CycleReporter results")
	}
	if m.SimWall <= 0 {
		t.Error("SimWall not accounted")
	}
}

// TestResultsDecode: the typed decode helper round-trips values.
func TestResultsDecode(t *testing.T) {
	raws, err := Serial().Run(fakeJobs(5))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := Results[fakeResult](raws)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v.Index != i {
			t.Errorf("result %d decoded Index %d", i, v.Index)
		}
	}
}

// TestEmptyRun: zero jobs is a no-op.
func TestEmptyRun(t *testing.T) {
	res, err := Serial().Run(nil)
	if err != nil || res != nil {
		t.Fatalf("empty run: %v %v", res, err)
	}
}
