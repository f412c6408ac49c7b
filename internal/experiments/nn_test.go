package experiments

import (
	"reflect"
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
