package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/energy"
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
		j, err := ResolveSpecs([]sweep.Spec{s})
		if err != nil {
			t.Fatal(err)
		}
		raws, err := sweep.Serial().Run(j)
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

// swapTraces wraps wifiTrace for the test and returns a function that
// reports the traces built so far, by seed.
func swapTraces(t *testing.T) func() map[int64][]*energy.Trace {
	t.Helper()
	var mu sync.Mutex
	built := map[int64][]*energy.Trace{}
	orig := wifiTrace
	wifiTrace = func(seed int64) *energy.Trace {
		tr := orig(seed)
		mu.Lock()
		built[seed] = append(built[seed], tr)
		mu.Unlock()
		return tr
	}
	t.Cleanup(func() { wifiTrace = orig })
	return func() map[int64][]*energy.Trace {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(built)
	}
}

// speedupBatch is one batch that shares a table: the specs of its cells
// and a function that runs it on a runner.
type speedupBatch struct {
	name  string
	specs []sweep.Spec
	run   func(sweep.Runner) error
}

// speedupBatches are a SpeedupStudy batch on Clank and a ResolveSpecs
// batch over both processors.
func speedupBatches() []speedupBatch {
	proto := Protocol{Traces: 2, Invocations: 1}
	var study []sweep.Spec
	for _, b := range workloads.All() {
		for _, bits := range []int{8, 4} {
			study = append(study, speedupSpecs(core.ProcClank, b, proto.params(b), bits, proto)...)
		}
	}
	specs := baselineBatch()
	return []speedupBatch{
		{"SpeedupStudy", study, func(r sweep.Runner) error {
			proto := proto
			proto.Runner = r
			_, err := SpeedupStudy(core.ProcClank, proto)
			return err
		}},
		{"ResolveSpecs", specs, func(r sweep.Runner) error {
			jobs, err := ResolveSpecs(specs)
			if err != nil {
				return err
			}
			_, err = r.Run(jobs)
			return err
		}},
	}
}

// TestBatchBuildsEachTraceOnce: a SpeedupStudy batch and a ResolveSpecs
// batch, each on two workers, build each of their trace seeds exactly
// once, and every trace their cells shared still equals a fresh build of
// its seed, sample for sample.
func TestBatchBuildsEachTraceOnce(t *testing.T) {
	for _, batch := range speedupBatches() {
		t.Run(batch.name, func(t *testing.T) {
			seeds := map[int64]bool{}
			for _, s := range batch.specs {
				seeds[s.TraceSeed] = true
			}
			built := swapTraces(t)
			if err := batch.run(sweep.New(sweep.Options{Workers: 2})); err != nil {
				t.Fatal(err)
			}
			got := built()
			if len(got) != len(seeds) {
				t.Errorf("built traces of %d seeds, want %d", len(got), len(seeds))
			}
			for seed, trs := range got {
				if !seeds[seed] {
					t.Errorf("built a trace of seed %d, which no cell runs on", seed)
					continue
				}
				if len(trs) != 1 {
					t.Errorf("seed %d: built %d times, want once", seed, len(trs))
					continue
				}
				fresh := energy.SyntheticWiFiTrace(seed, energy.DefaultTraceConfig())
				if trs[0].SampleHz != fresh.SampleHz || !slices.Equal(trs[0].Power, fresh.Power) {
					t.Errorf("seed %d: the shared trace differs from a fresh one after the batch", seed)
				}
			}
		})
	}
}

// builtInputs is one call of buildInputs: its arguments and the set it
// returned.
type builtInputs struct {
	b    *workloads.Benchmark
	p    workloads.Params
	seed int64
	set  inputSet
}

// swapInputs wraps buildInputs for the test and returns a function that
// reports the input sets built so far, by key.
func swapInputs(t *testing.T) func() map[inputKey][]builtInputs {
	t.Helper()
	var mu sync.Mutex
	built := map[inputKey][]builtInputs{}
	orig := buildInputs
	buildInputs = func(b *workloads.Benchmark, p workloads.Params, seed int64) inputSet {
		set := orig(b, p, seed)
		k := inputKey{kernel: b.Name, workload: encodeParams(p), inputSeed: seed}
		mu.Lock()
		built[k] = append(built[k], builtInputs{b, p, seed, set})
		mu.Unlock()
		return set
	}
	t.Cleanup(func() { buildInputs = orig })
	return func() map[inputKey][]builtInputs {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(built)
	}
}

// TestBatchBuildsEachInputSetOnce: a SpeedupStudy batch and a ResolveSpecs
// batch, each on two workers, generate the inputs and golden output of each
// (kernel, params, input seed) exactly once, and every set their cells
// shared still equals a fresh one, element for element.
func TestBatchBuildsEachInputSetOnce(t *testing.T) {
	for _, batch := range speedupBatches() {
		t.Run(batch.name, func(t *testing.T) {
			want := map[inputKey]bool{}
			for _, s := range batch.specs {
				want[baselineKey(s).inputKey] = true
			}
			if len(want) >= len(batch.specs) {
				t.Fatalf("%d input sets for %d cells: the batch shares none", len(want), len(batch.specs))
			}
			built := swapInputs(t)
			if err := batch.run(sweep.New(sweep.Options{Workers: 2})); err != nil {
				t.Fatal(err)
			}
			got := built()
			if len(got) != len(want) {
				t.Errorf("built %d input sets, want %d", len(got), len(want))
			}
			for k, calls := range got {
				if !want[k] {
					t.Errorf("built input set %+v, which no cell uses", k)
					continue
				}
				if len(calls) != 1 {
					t.Errorf("%+v: built %d times, want once", k, len(calls))
					continue
				}
				c := calls[0]
				in := c.b.Inputs(c.p, c.seed)
				if !maps.EqualFunc(c.set.in, in, slices.Equal) {
					t.Errorf("%+v: the shared inputs differ from fresh ones after the batch", k)
				}
				if !slices.Equal(c.set.golden, c.b.Golden(c.p, in)) {
					t.Errorf("%+v: the shared golden output differs from a fresh one after the batch", k)
				}
			}
		})
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

// TestResolveSpeedupRoundTrip: a resolved speedup spec reruns the exact
// cell the study enumerated.
func TestResolveSpeedupRoundTrip(t *testing.T) {
	b := workloads.Var()
	p := DefaultProtocol().params(b)
	spec := speedupSpec(core.ProcClank, b, p, 4, 1000, 1)
	j1, err := ResolveSpecs([]sweep.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := ResolveSpecs([]sweep.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sweep.Serial().Run(j1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sweep.Serial().Run(j2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1[0], r2[0]) {
		t.Error("re-resolved speedup cell is not deterministic")
	}
}

// TestResolveSpecErrors: malformed specs are rejected with messages that
// name the problem.
func TestResolveSpecErrors(t *testing.T) {
	b := workloads.Var()
	p := DefaultProtocol().params(b)
	good := speedupSpec(core.ProcClank, b, p, 4, 1000, 1)

	cases := []struct {
		name string
		mut  func(s sweep.Spec) sweep.Spec
		want string
	}{
		{"unknown experiment", func(s sweep.Spec) sweep.Spec {
			s.Experiment, s.Processor, s.Source, s.TraceSeed = "table1", "", "", 0
			s.Variant = PreciseVariant(b, p).String()
			s.Params = specParams(p)
			return s
		}, "unresolvable experiment"},
		{"unknown kernel", func(s sweep.Spec) sweep.Spec { s.Kernel = "Nope"; return s }, "unknown benchmark"},
		{"unknown processor", func(s sweep.Spec) sweep.Spec { s.Processor = "magic"; return s }, "unknown processor"},
		{"missing bits", func(s sweep.Spec) sweep.Spec {
			s.Params = map[string]string{"workload": s.Params["workload"]}
			return s
		}, `missing "bits"`},
		{"bits out of range", func(s sweep.Spec) sweep.Spec {
			s.Params = map[string]string{"workload": s.Params["workload"], "bits": "99"}
			s.Variant = ""
			return s
		}, "out of range"},
		{"bad workload json", func(s sweep.Spec) sweep.Spec {
			s.Params = map[string]string{"workload": "{", "bits": "4"}
			return s
		}, "bad workload param"},
		{"variant mismatch", func(s sweep.Spec) sweep.Spec { s.Variant = "Var/swp8"; return s }, "does not match"},
	}
	if _, err := ResolveSpecs([]sweep.Spec{good}); err != nil {
		t.Fatalf("valid speedup spec rejected: %v", err)
	}
	for _, tc := range cases {
		_, err := ResolveSpecs([]sweep.Spec{good, tc.mut(good)})
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "spec 1:") {
			t.Errorf("%s: err = %v, want spec 1 rejected with %q", tc.name, err, tc.want)
		}
	}
}
