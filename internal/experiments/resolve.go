package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"whatsnext/internal/core"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// This file is the spec → job registry: the inverse of each study's cell
// enumeration. A sweep.Spec fully identifies a simulation cell (that is the
// engine's determinism contract), so the cell can be reconstructed from the
// spec alone. The studies route their own enumerated specs through these
// resolvers, so a spec is validated before its cell runs and the cell a
// spec names is always the one the study would have built.

// specResolvers maps an experiment name to the function that rebuilds its
// Run closures from specs: table1 (one cell per kernel), speedup (Figure
// 10/11, one cell per kernel, bits, trace and input) and nn (one cell per
// kernel, bits and input). Each resolver also gets the precise-baseline
// table of the batch the spec is resolved in; only speedup uses it.
var specResolvers = map[string]func(sweep.Spec, *preciseTable) (func() (any, error), error){
	"table1":  resolveTable1,
	"speedup": resolveSpeedup,
	"nn":      resolveNN,
}

// ResolveSpec validates a spec against the registry and reconstructs its
// runnable job. The returned job's Run closure is the same pure function of
// the spec that the study itself would enumerate. A speedup job resolved
// alone simulates its own precise baseline.
func ResolveSpec(s sweep.Spec) (sweep.Job, error) {
	return resolveSpec(s, &preciseTable{})
}

func resolveSpec(s sweep.Spec, base *preciseTable) (sweep.Job, error) {
	resolve, ok := specResolvers[s.Experiment]
	if !ok {
		names := make([]string, 0, len(specResolvers))
		for name := range specResolvers {
			names = append(names, name)
		}
		sort.Strings(names)
		return sweep.Job{}, fmt.Errorf("experiments: unresolvable experiment %q (resolvable: %s)",
			s.Experiment, strings.Join(names, ", "))
	}
	run, err := resolve(s, base)
	if err != nil {
		return sweep.Job{}, fmt.Errorf("experiments: %s spec: %w", s.Experiment, err)
	}
	return sweep.Job{Spec: s, Run: run}, nil
}

// ResolveSpecs resolves a batch, naming the index of the first bad spec.
// The batch's speedup jobs share one table of precise baselines, keyed by
// every spec field except bits: each distinct baseline is simulated once,
// by the first job that needs it, and its result (or error) goes to every
// job that shares it. The table belongs to the returned jobs alone, so
// another ResolveSpecs call simulates its baselines afresh.
func ResolveSpecs(specs []sweep.Spec) ([]sweep.Job, error) {
	base := &preciseTable{}
	jobs := make([]sweep.Job, len(specs))
	for i, s := range specs {
		j, err := resolveSpec(s, base)
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		jobs[i] = j
	}
	return jobs, nil
}

// specWorkload decodes the canonical workload size from a spec's params.
func specWorkload(s sweep.Spec) (workloads.Params, error) {
	raw, ok := s.Params["workload"]
	if !ok {
		return workloads.Params{}, fmt.Errorf("missing %q param", "workload")
	}
	var p workloads.Params
	if err := json.Unmarshal([]byte(raw), &p); err != nil {
		return workloads.Params{}, fmt.Errorf("bad workload param %q: %v", raw, err)
	}
	return p, nil
}

// specInt parses an integer spec param.
func specInt(s sweep.Spec, key string) (int, error) {
	raw, ok := s.Params[key]
	if !ok {
		return 0, fmt.Errorf("missing %q param", key)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %q param %q", key, raw)
	}
	return v, nil
}

// parseProcessor inverts core.Processor.String.
func parseProcessor(name string) (core.Processor, error) {
	for _, p := range []core.Processor{core.ProcClank, core.ProcNVP, core.ProcUndoLog} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown processor %q (want clank, nvp or undolog)", name)
}

// checkVariant guards against a spec whose redundant variant label
// disagrees with the fields it was reconstructed from — such a spec would
// poison shared caches with mislabeled results.
func checkVariant(s sweep.Spec, want string) error {
	if s.Variant != "" && s.Variant != want {
		return fmt.Errorf("variant %q does not match spec fields (%q)", s.Variant, want)
	}
	return nil
}

func resolveTable1(s sweep.Spec, _ *preciseTable) (func() (any, error), error) {
	b, err := workloads.ByName(s.Kernel)
	if err != nil {
		return nil, err
	}
	p, err := specWorkload(s)
	if err != nil {
		return nil, err
	}
	if err := checkVariant(s, PreciseVariant(b, p).String()); err != nil {
		return nil, err
	}
	return func() (any, error) { return runTable1Cell(b, p) }, nil
}

func resolveSpeedup(s sweep.Spec, base *preciseTable) (func() (any, error), error) {
	b, err := workloads.ByName(s.Kernel)
	if err != nil {
		return nil, err
	}
	p, err := specWorkload(s)
	if err != nil {
		return nil, err
	}
	proc, err := parseProcessor(s.Processor)
	if err != nil {
		return nil, err
	}
	bits, err := specInt(s, "bits")
	if err != nil {
		return nil, err
	}
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("bits %d out of range [1,8]", bits)
	}
	if err := checkVariant(s, WNVariant(b, p, bits).String()); err != nil {
		return nil, err
	}
	key := baselineKey(s)
	return func() (any, error) { return runSpeedupCell(base, key, proc, b, p, bits) }, nil
}
