package experiments

import (
	"encoding/json"
	"strconv"

	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// This file is the bridge between the studies and the sweep engine: each
// experiment enumerates its independent simulation cells as sweep.Jobs
// (spec + self-contained Run closure), submits them in one batch, and
// decodes the results back into its row types. Every Run closure compiles
// its own variants and builds its own device, so cells share no mutable
// state and the engine may run them on any number of workers.

// runner returns the protocol's job runner: Runner when set, else a serial
// uncached engine.
func (p Protocol) runner() sweep.Runner {
	if p.Runner != nil {
		return p.Runner
	}
	return sweep.Serial()
}

// runSweep submits a homogeneous job list and decodes each result.
func runSweep[T any](r sweep.Runner, jobs []sweep.Job) ([]T, error) {
	raws, err := r.Run(jobs)
	if err != nil {
		return nil, err
	}
	return sweep.Results[T](raws)
}

// encodeParams canonicalizes a workload size for inclusion in a job spec;
// two cells with different input sizes must never share a cache key.
func encodeParams(p workloads.Params) string {
	b, err := json.Marshal(p)
	if err != nil {
		panic("experiments: unmarshalable params: " + err.Error())
	}
	return string(b)
}

// specParams builds the Params map of a spec from alternating key, value
// strings plus the workload size.
func specParams(p workloads.Params, kv ...string) map[string]string {
	m := map[string]string{"workload": encodeParams(p)}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

func itoa(v int) string { return strconv.Itoa(v) }
