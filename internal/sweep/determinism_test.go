package sweep_test

import (
	"encoding/json"
	"sort"
	"sync"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/experiments"
	"whatsnext/internal/sweep"
)

// hashRecorder collects the spec hash of every completed job.
type hashRecorder struct {
	mu     sync.Mutex
	hashes []string
}

func (h *hashRecorder) onProgress(p sweep.Progress) {
	h.mu.Lock()
	h.hashes = append(h.hashes, p.Spec.Hash())
	h.mu.Unlock()
}

func (h *hashRecorder) sorted() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]string(nil), h.hashes...)
	sort.Strings(out)
	return out
}

// TestExperimentDeterminism is the regression guard for the engine's core
// contract: the same experiment run serially (-parallel 1) and with 8
// workers must produce byte-identical structured results and identical
// job-spec hashes. A failure here means shared-RNG or map-iteration
// nondeterminism leaked into a sweep cell.
func TestExperimentDeterminism(t *testing.T) {
	proto := experiments.Protocol{Traces: 2, Invocations: 1}

	type study struct {
		name string
		run  func(p experiments.Protocol) (any, error)
	}
	studies := []study{
		{"speedup-clank", func(p experiments.Protocol) (any, error) {
			return experiments.SpeedupStudy(core.ProcClank, p)
		}},
		{"environments", func(p experiments.Protocol) (any, error) {
			return experiments.EnvironmentStudy(p)
		}},
		{"fig15", func(p experiments.Protocol) (any, error) {
			return experiments.Figure15(p)
		}},
		{"fig1", func(p experiments.Protocol) (any, error) {
			return experiments.StreamStudy(p, 12)
		}},
		{"progress", func(p experiments.Protocol) (any, error) {
			return experiments.ProgressStudy(p)
		}},
	}
	for _, s := range studies {
		t.Run(s.name, func(t *testing.T) {
			collect := func(workers int) ([]byte, []string) {
				rec := &hashRecorder{}
				p := proto
				p.Engine = sweep.New(sweep.Options{Workers: workers, OnProgress: rec.onProgress})
				rows, err := s.run(p)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				b, err := json.Marshal(rows)
				if err != nil {
					t.Fatal(err)
				}
				return b, rec.sorted()
			}
			serial, serialHashes := collect(1)
			parallel, parallelHashes := collect(8)
			if string(serial) != string(parallel) {
				t.Errorf("results differ between 1 and 8 workers:\nserial:   %s\nparallel: %s",
					serial, parallel)
			}
			if len(serialHashes) != len(parallelHashes) {
				t.Fatalf("hash count differs: %d vs %d", len(serialHashes), len(parallelHashes))
			}
			for i := range serialHashes {
				if serialHashes[i] != parallelHashes[i] {
					t.Fatalf("job-spec hash sets differ at %d: %s vs %s",
						i, serialHashes[i], parallelHashes[i])
				}
			}
		})
	}
}

// TestCachedExperimentIdentical: running a study against a warm disk cache
// must reproduce the cold-run rows byte for byte while simulating nothing.
func TestCachedExperimentIdentical(t *testing.T) {
	cache, err := sweep.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]byte, sweep.Metrics) {
		eng := sweep.New(sweep.Options{Workers: 4, Cache: cache})
		proto := experiments.Protocol{Traces: 2, Invocations: 1, Engine: eng}
		rows, err := experiments.Figure15(proto)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return b, eng.Metrics()
	}
	cold, coldM := run()
	if coldM.CacheHits != 0 {
		t.Errorf("cold run had %d cache hits", coldM.CacheHits)
	}
	warm, warmM := run()
	if warmM.CacheHits != warmM.Done || warmM.CacheHits == 0 {
		t.Errorf("warm run: %d hits of %d jobs, want all", warmM.CacheHits, warmM.Done)
	}
	if string(cold) != string(warm) {
		t.Errorf("warm-cache rows differ from cold run:\ncold: %s\nwarm: %s", cold, warm)
	}
}
