package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/nn"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// FuzzResolveSpecs: ResolveSpecs returns an error, never panics, on any
// batch of specs decoded from JSON, and a batch it accepts resolves to one
// job per spec carrying that spec. No job is run. Seeds are the marshalled
// specs of every study that enumerates specs: table1, speedup and nn.
func FuzzResolveSpecs(f *testing.F) {
	proto := DefaultProtocol()
	seeds := [][]sweep.Spec{Table1Specs(proto)}
	for _, b := range workloads.All() {
		p := proto.params(b)
		var batch []sweep.Spec
		for _, proc := range []core.Processor{core.ProcClank, core.ProcNVP, core.ProcUndoLog} {
			for _, bits := range []int{4, 8} {
				batch = append(batch, speedupSpec(proc, b, p, bits, 1000, 1))
			}
		}
		seeds = append(seeds, batch)
	}
	for _, b := range nn.All() {
		p := proto.params(b)
		var batch []sweep.Spec
		for _, bits := range nnBits(b) {
			batch = append(batch, nnSpec(b, p, bits, 1))
		}
		seeds = append(seeds, batch)
	}
	for _, specs := range seeds {
		data, err := json.Marshal(specs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var specs []sweep.Spec
		if err := json.Unmarshal(data, &specs); err != nil {
			return
		}
		jobs, err := ResolveSpecs(specs)
		if err != nil {
			return
		}
		if len(jobs) != len(specs) {
			t.Fatalf("%d specs resolved to %d jobs", len(specs), len(jobs))
		}
		for i, j := range jobs {
			if j.Run == nil || !reflect.DeepEqual(j.Spec, specs[i]) {
				t.Fatalf("job %d does not carry its spec with a Run closure", i)
			}
		}
	})
}
