package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"whatsnext/bench/golden"
	"whatsnext/internal/experiments"
	"whatsnext/internal/sweep"
)

// TestGoldenDigests runs one round of each workload and checks its output
// against the committed digest. The suite-default digest is that of
// `wnbench -exp all` with an empty -out, so this also fails when the
// suite's experiment list drifts from wnbench's registry.
func TestGoldenDigests(t *testing.T) {
	for i := range workloadList {
		wl := &workloadList[i]
		t.Run(wl.name, func(t *testing.T) {
			if wl.name == "intermittent-paper" && testing.Short() {
				t.Skip("paper-scale cells; run without -short")
			}
			out, err := wl.round(newEnv(defaultSeed))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out)
			if got, want := hex.EncodeToString(sum[:]), golden.Digest(wl.name); got != want {
				t.Errorf("output digest %s, committed %q", got, want)
			}
		})
	}
}

// TestProbeFidelity checks that the probe's layer-by-layer replay
// reproduces the results of one traced round of table1-scaled and
// faults-strided, and of one intermittent-paper cell per kernel.
func TestProbeFidelity(t *testing.T) {
	for _, name := range []string{"table1-scaled", "faults-strided"} {
		t.Run(name, func(t *testing.T) {
			wl, _ := lookupWorkload(name)
			e := newEnv(defaultSeed)
			e.runner.tr = newTracer()
			if _, err := wl.round(e); err != nil {
				t.Fatal(err)
			}
			p, err := probeRound(e, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.cells != len(e.runner.cells) || p.cells == 0 {
				t.Errorf("replayed %d of %d cells", p.cells, len(e.runner.cells))
			}
		})
	}
	t.Run("intermittent-paper", func(t *testing.T) {
		// The first spec of each kernel: Clank, 8 bits, trace seed 1000,
		// input 1.
		seen := map[string]bool{}
		var specs []sweep.Spec
		for _, s := range paperSpecs(defaultSeed) {
			if !seen[s.Kernel] {
				seen[s.Kernel] = true
				specs = append(specs, s)
			}
		}
		jobs, err := experiments.ResolveSpecs(specs)
		if err != nil {
			t.Fatal(err)
		}
		e := newEnv(defaultSeed)
		e.runner.tr = newTracer()
		if _, err := e.runner.Run(jobs); err != nil {
			t.Fatal(err)
		}
		p, err := probeRound(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.speedupCells != len(specs) {
			t.Errorf("replayed %d speedup cells, want %d", p.speedupCells, len(specs))
		}
	})
}

// TestProbeDetectsMismatch feeds the probe a cell result that differs from
// what the cell computes.
func TestProbeDetectsMismatch(t *testing.T) {
	e := newEnv(defaultSeed)
	e.runner.tr = newTracer()
	if _, err := table1Round(e); err != nil {
		t.Fatal(err)
	}
	c := &e.runner.cells[0]
	c.Raw = bytes.Replace(c.Raw, []byte(`"Cycles":`), []byte(`"Cycles":1`), 1)
	if _, err := probeRound(e, nil); err == nil || !strings.Contains(err.Error(), "replay gives") {
		t.Fatalf("probe accepted a tampered result: %v", err)
	}
}

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCLIInputErrors(t *testing.T) {
	code, out, _ := runCLI("-workload", "list")
	if code != 0 {
		t.Fatalf("list exited %d", code)
	}
	for _, wl := range workloadList {
		if !strings.Contains(out, wl.name) || !strings.Contains(out, wl.why) {
			t.Errorf("list output lacks %s and its reason:\n%s", wl.name, out)
		}
	}
	for _, args := range [][]string{
		{"-workload", "nope"},
		{},
		{"-workload", "table1-scaled", "-seed", "abc"},
		{"-workload", "table1-scaled", "-trace", "2"},
		{"-workload", "table1-scaled", "-seconds", "0"},
		{"-workload", "table1-scaled", "extra"},
		{"-workload", "all", "-trace", "1", "-spans", "x.jsonl"},
		{"-bogus"},
	} {
		code, out, errOut := runCLI(args...)
		if code != 2 || out != "" {
			t.Errorf("%q: exit %d, stdout %q; want 2 and no output", args, code, out)
		}
		if len(args) < 2 {
			for _, name := range workloadNames() {
				if !strings.Contains(errOut, name) {
					t.Errorf("%q: error does not name workload %s:\n%s", args, name, errOut)
				}
			}
		}
	}
}

// TestReportsDeclaredMetrics runs table1-scaled briefly untraced and traced
// and checks that the last output line reports exactly the metrics
// BENCHMARK.json declares.
func TestReportsDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]decl{"0": spec.EndToEnd, "1": spec.PerLayer} {
		code, out, errOut := runCLI("-workload", "table1-scaled", "-seconds", "0.2", "-trace", trace)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct %v attempted %d failed %d", trace, res.Correct, res.Attempted, res.Failed)
		}
		var got, declared []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range want {
			declared = append(declared, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(declared)
		if strings.Join(got, ",") != strings.Join(declared, ",") {
			t.Errorf("trace %s: reports %v, BENCHMARK.json declares %v", trace, got, declared)
		}
	}
}
