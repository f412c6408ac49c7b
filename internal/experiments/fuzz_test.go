package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// FuzzResolveSpecs: ResolveSpecs returns an error, never panics, on any
// batch of specs decoded from JSON, and a batch it accepts decodes to one
// job per spec carrying that spec. No job is run. Seeds are speedup
// batches: one per kernel on every processor at both widths, the study's
// own Figure 10 batch, and four batches whose last spec is rejected.
func FuzzResolveSpecs(f *testing.F) {
	proto := DefaultProtocol()
	var fig10 []sweep.Spec
	for _, b := range workloads.All() {
		for _, bits := range []int{8, 4} {
			fig10 = append(fig10, speedupSpecs(core.ProcClank, b, proto.params(b), bits, proto)...)
		}
	}
	seeds := [][]sweep.Spec{fig10}
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
	good := fig10[0]
	for _, mut := range []func(s *sweep.Spec){
		func(s *sweep.Spec) { s.Experiment = "nn" },
		func(s *sweep.Spec) { s.Params = map[string]string{"workload": s.Params["workload"], "bits": "0"} },
		func(s *sweep.Spec) { s.Params = map[string]string{"workload": "{", "bits": "4"} },
		func(s *sweep.Spec) { s.Variant = s.Kernel + "/precise" },
	} {
		bad := good
		mut(&bad)
		seeds = append(seeds, []sweep.Spec{good, bad})
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
