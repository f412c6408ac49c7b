package experiments

import (
	"bytes"
	"strings"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// TestResolveTable1RoundTrip: resolving the enumerated table1 specs
// reproduces the study's own results byte for byte.
func TestResolveTable1RoundTrip(t *testing.T) {
	proto := DefaultProtocol()
	specs := Table1Specs(proto)
	if len(specs) != len(workloads.All()) {
		t.Fatalf("%d specs, want one per benchmark", len(specs))
	}
	jobs, err := ResolveSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := sweep.Serial().Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.Results[Table1Row](resolved)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table1(proto)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(rows) {
		t.Fatalf("%d resolved cells vs %d study rows", len(cells), len(rows))
	}
	for i := range rows {
		if cells[i] != rows[i] {
			t.Errorf("row %d: resolved %+v, study %+v", i, cells[i], rows[i])
		}
		if rows[i].Benchmark != specs[i].Kernel {
			t.Errorf("row %d is %s, spec says %s", i, rows[i].Benchmark, specs[i].Kernel)
		}
	}
}

// TestResolveSpeedupRoundTrip: a resolved speedup spec reruns the exact
// cell the study enumerated.
func TestResolveSpeedupRoundTrip(t *testing.T) {
	b := workloads.Var()
	p := DefaultProtocol().params(b)
	spec := speedupSpec(core.ProcClank, b, p, 4, 1000, 1)
	j1, err := ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sweep.Serial().Run([]sweep.Job{j1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sweep.Serial().Run([]sweep.Job{j2})
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
		{"unknown experiment", func(s sweep.Spec) sweep.Spec { s.Experiment = "fig99"; return s }, "unresolvable experiment"},
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
	for _, tc := range cases {
		_, err := ResolveSpec(tc.mut(good))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := ResolveSpec(Table1Specs(DefaultProtocol())[0]); err != nil {
		t.Errorf("valid table1 spec rejected: %v", err)
	}
}
