package experiments

import (
	"reflect"
	"strings"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/nn"
	"whatsnext/internal/sweep"
)

// TestNNStudyShape pins the study's table: one row per (kernel, build),
// exact precise baselines, and a real accuracy-vs-energy axis — truncated
// builds get monotonically cheaper and no more accurate as the retained
// subword narrows.
func TestNNStudyShape(t *testing.T) {
	rows, err := NNStudy(DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, b := range nn.All() {
		want += len(nnBits(b))
	}
	if len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	byBench := map[string][]NNRow{}
	for _, r := range rows {
		byBench[r.Benchmark] = append(byBench[r.Benchmark], r)
	}
	for _, b := range nn.All() {
		rs := byBench[b.Name]
		if len(rs) == 0 {
			t.Fatalf("no rows for %s", b.Name)
		}
		// Row 0 is the precise baseline: bit-exact by construction.
		if rs[0].Bits != 0 || rs[0].NRMSE != 0 || rs[0].Top1 != 100 || rs[0].TileMatch != 100 {
			t.Errorf("%s precise row not exact: %+v", b.Name, rs[0])
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].Cycles >= rs[i-1].Cycles {
				t.Errorf("%s %s (%d cycles) not cheaper than %s (%d cycles)",
					b.Name, rs[i].Variant, rs[i].Cycles, rs[i-1].Variant, rs[i-1].Cycles)
			}
			if rs[i].NRMSE < rs[i-1].NRMSE {
				t.Errorf("%s %s error %v below wider build %v",
					b.Name, rs[i].Variant, rs[i].NRMSE, rs[i-1].NRMSE)
			}
		}
		if b.Mode != compiler.ModePrecise && rs[len(rs)-1].NRMSE == 0 {
			t.Errorf("%s narrowest build introduced no error; axis is degenerate", b.Name)
		}
	}
}

// TestNNStudyParallelDeterminism: the study's rows are identical on the
// serial reference engine and an 8-worker engine (the determinism
// contract).
func TestNNStudyParallelDeterminism(t *testing.T) {
	proto := Protocol{Traces: 1, Invocations: 2}
	serial, err := NNStudy(proto)
	if err != nil {
		t.Fatal(err)
	}
	proto.Runner = sweep.New(sweep.Options{Workers: 8})
	parallel, err := NNStudy(proto)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and 8-worker rows differ:\n%+v\nvs\n%+v", serial, parallel)
	}
}

// TestResolveNNRoundTrip: a resolved nn spec reruns the exact cell the
// study enumerated, deterministically.
func TestResolveNNRoundTrip(t *testing.T) {
	b := nn.NNConv()
	p := DefaultProtocol().params(b)
	spec := nnSpec(b, p, 4, 1)
	j, err := ResolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sweep.Serial().Run([]sweep.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.Results[nnCell](r1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runNNCell(b, p, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0] != direct {
		t.Fatalf("resolved cell %+v != direct cell %+v", cells[0], direct)
	}
}

// TestResolveNNErrors: malformed nn specs are rejected with messages that
// name the problem.
func TestResolveNNErrors(t *testing.T) {
	conv := nn.NNConv()
	p := DefaultProtocol().params(conv)
	good := nnSpec(conv, p, 4, 1)
	cases := []struct {
		name string
		mut  func(s sweep.Spec) sweep.Spec
		want string
	}{
		{"unknown kernel", func(s sweep.Spec) sweep.Spec { s.Kernel = "NNBogus"; return s }, "unknown benchmark"},
		{"bits out of range", func(s sweep.Spec) sweep.Spec {
			s.Params = map[string]string{"workload": s.Params["workload"], "bits": "-1"}
			s.Variant = ""
			return s
		}, "out of range"},
		{"variant mismatch", func(s sweep.Spec) sweep.Spec { s.Variant = "NNConv/swp8"; return s }, "does not match"},
		{"missing bits", func(s sweep.Spec) sweep.Spec {
			s.Params = map[string]string{"workload": s.Params["workload"]}
			return s
		}, `missing "bits"`},
	}
	for _, tc := range cases {
		_, err := ResolveSpec(tc.mut(good))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}

	// Max pooling has no subword decomposition: nonzero bits are rejected.
	pool := nn.NNPoolMax()
	pp := DefaultProtocol().params(pool)
	bad := nnSpec(pool, pp, 0, 1)
	bad.Params["bits"] = "4"
	bad.Variant = ""
	if _, err := ResolveSpec(bad); err == nil || !strings.Contains(err.Error(), "precisely only") {
		t.Errorf("nonzero bits for NNPoolMax: err = %v, want precise-only rejection", err)
	}
}
