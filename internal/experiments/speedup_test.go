package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// baselineBatch is a Figure 10-style batch: two kernels at 8 and 4 bits on
// two traces, on Clank and on NVP. Its 16 cells share 8 precise baselines.
func baselineBatch() []sweep.Spec {
	proto := Protocol{Traces: 2, Invocations: 1}
	var specs []sweep.Spec
	for _, proc := range []core.Processor{core.ProcClank, core.ProcNVP} {
		for _, b := range []*workloads.Benchmark{workloads.Var(), workloads.MatAdd()} {
			p := proto.params(b)
			for _, bits := range []int{8, 4} {
				specs = append(specs, speedupSpecs(proc, b, p, bits, proto)...)
			}
		}
	}
	return specs
}

// swapBaselines replaces simulateBaseline for the test: fail decides each
// key's forced error (nil simulates it), and the returned function reports
// how often each key was simulated so far.
func swapBaselines(t *testing.T, fail func(preciseKey) error) func() map[preciseKey]int {
	t.Helper()
	var mu sync.Mutex
	counts := map[preciseKey]int{}
	orig := simulateBaseline
	simulateBaseline = func(k preciseKey, sim func() (uint64, error)) (uint64, error) {
		mu.Lock()
		counts[k]++
		mu.Unlock()
		if err := fail(k); err != nil {
			return 0, err
		}
		return sim()
	}
	t.Cleanup(func() { simulateBaseline = orig })
	return func() map[preciseKey]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[preciseKey]int, len(counts))
		for k, n := range counts {
			out[k] = n
		}
		return out
	}
}

// TestSpeedupBatchMatchesSingleSpecs: a batch whose cells share precise
// baselines gives the same encoded cells, at one and two workers, as
// resolving and running every spec on its own.
func TestSpeedupBatchMatchesSingleSpecs(t *testing.T) {
	specs := baselineBatch()
	var alone []json.RawMessage
	for _, s := range specs {
		j, err := ResolveSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		raws, err := sweep.Serial().Run([]sweep.Job{j})
		if err != nil {
			t.Fatal(err)
		}
		alone = append(alone, raws[0])
	}
	for _, workers := range []int{1, 2} {
		jobs, err := ResolveSpecs(specs)
		if err != nil {
			t.Fatal(err)
		}
		raws, err := sweep.New(sweep.Options{Workers: workers}).Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if !bytes.Equal(raws[i], alone[i]) {
				t.Errorf("%d workers, cell %d (%s): batch %s, alone %s", workers, i, specs[i], raws[i], alone[i])
			}
		}
	}
}

// TestSpeedupBatchSimulatesEachBaselineOnce: within one ResolveSpecs batch
// each precise baseline is simulated exactly once, and a second batch
// simulates each again: no state outlives a batch.
func TestSpeedupBatchSimulatesEachBaselineOnce(t *testing.T) {
	specs := baselineBatch()
	want := map[preciseKey]int{}
	for _, s := range specs {
		want[baselineKey(s)] = 1
	}
	if len(want) != len(specs)/2 {
		t.Fatalf("%d baselines for %d cells, want one per bit-width pair", len(want), len(specs))
	}
	counts := swapBaselines(t, func(preciseKey) error { return nil })
	for round := 1; round <= 2; round++ {
		jobs, err := ResolveSpecs(specs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sweep.New(sweep.Options{Workers: 2}).Run(jobs); err != nil {
			t.Fatal(err)
		}
		got := counts()
		if len(got) != len(want) {
			t.Errorf("batch %d: simulated %d distinct baselines, want %d", round, len(got), len(want))
		}
		for k := range want {
			if got[k] != round {
				t.Errorf("batch %d: baseline %+v simulated %d times in total, want %d", round, k, got[k], round)
			}
		}
	}
}

// TestSpeedupBaselineErrorReachesSharers: a baseline that fails returns the
// same error to every cell sharing it, even when those cells run at once,
// and the failed baseline is not simulated again.
func TestSpeedupBaselineErrorReachesSharers(t *testing.T) {
	specs := baselineBatch()
	bad := baselineKey(specs[0])
	forced := errors.New("forced baseline failure")
	counts := swapBaselines(t, func(k preciseKey) error {
		if k == bad {
			return forced
		}
		return nil
	})
	jobs, err := ResolveSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = jobs[i].Run()
		}()
	}
	wg.Wait()
	sharers := 0
	for i, s := range specs {
		if baselineKey(s) == bad {
			sharers++
			if !errors.Is(errs[i], forced) {
				t.Errorf("cell %d (%s) shares the failing baseline: err %v, want %v", i, s, errs[i], forced)
			}
		} else if errs[i] != nil {
			t.Errorf("cell %d (%s): unexpected error %v", i, s, errs[i])
		}
	}
	if sharers != 2 {
		t.Errorf("%d cells share the failing baseline, want 2 (8 and 4 bits)", sharers)
	}
	if n := counts()[bad]; n != 1 {
		t.Errorf("failing baseline simulated %d times, want 1", n)
	}
}
