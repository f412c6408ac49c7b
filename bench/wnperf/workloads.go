package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/experiments"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// defaultSeed is the paper protocol's first input seed; at it the
// intermittent-paper output must match its committed digest.
const defaultSeed = 1

// faultsPoints is the kill-point count per faults-strided cell.
const faultsPoints = 512

// workload is one input set of the benchmark. A round regenerates the
// workload's output once and returns its bytes; variants lists what set-up
// compiles before the first round.
type workload struct {
	name     string
	why      string
	usesSeed bool
	variants func() []experiments.Variant
	round    func(e *env) ([]byte, error)
}

var workloadList = []workload{
	{
		name:     "suite-default",
		why:      "all 19 wnbench experiments at the default protocol: every layer does a little work, the ROADMAP headline",
		variants: func() []experiments.Variant { return tableIVariants(scaled, true) },
		round:    suiteRound,
	},
	{
		name:     "table1-scaled",
		why:      "short continuous-power cells where device construction and input generation are a large share (the setup tax)",
		variants: func() []experiments.Variant { return tableIVariants(scaled, false) },
		round:    table1Round,
	},
	{
		name:     "intermittent-paper",
		why:      "long paper-scale cells riding through outages: runner, policy and supply dominate and set-up is amortized",
		usesSeed: true,
		variants: func() []experiments.Variant { return tableIVariants(paper, true) },
		round:    paperRound,
	},
	{
		name:     "faults-strided",
		why:      "fork-replay-compare fault injection: the cpu and mem layers used through Clone/CopyDirty instead of fresh devices",
		variants: func() []experiments.Variant { return tableIVariants(scaled, false) },
		round:    faultsRound,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloadList {
		if workloadList[i].name == name {
			return &workloadList[i], true
		}
	}
	return nil, false
}

func scaled(b *workloads.Benchmark) workloads.Params { return b.ScaledParams() }
func paper(b *workloads.Benchmark) workloads.Params  { return b.DefaultParams() }

// tableIVariants lists the precise build of every Table I kernel and, with
// wn set, its 8- and 4-bit anytime builds.
func tableIVariants(size func(*workloads.Benchmark) workloads.Params, wn bool) []experiments.Variant {
	var vs []experiments.Variant
	for _, b := range workloads.All() {
		p := size(b)
		vs = append(vs, experiments.PreciseVariant(b, p))
		if wn {
			vs = append(vs, experiments.WNVariant(b, p, 8), experiments.WNVariant(b, p, 4))
		}
	}
	return vs
}

// study runs one experiments call under an experiments.<name> span, so the
// runner can parent its sweep.run span on it, and keeps its fastest time.
func (e *env) study(name string, f func() error) error {
	sp := e.runner.tr.begin("experiments."+name, e.round, nil)
	e.runner.study = sp.id()
	t0 := time.Now()
	err := f()
	if d := time.Since(t0); e.fastest[name] == 0 || d < e.fastest[name] {
		e.fastest[name] = d
	}
	sp.end()
	return err
}

// suiteRound renders every experiment exactly as `wnbench -exp all` does:
// each followed by a blank line.
func suiteRound(e *env) ([]byte, error) {
	var buf bytes.Buffer
	for _, ent := range suite {
		if err := e.study(ent.name, func() error { return ent.run(&buf, e.proto) }); err != nil {
			return nil, fmt.Errorf("%s: %w", ent.name, err)
		}
		fmt.Fprintln(&buf)
	}
	return buf.Bytes(), nil
}

func table1Round(e *env) ([]byte, error) {
	var buf bytes.Buffer
	err := e.study("table1", func() error {
		rows, err := experiments.Table1(e.proto)
		if err == nil {
			experiments.PrintTable1(&buf, rows)
		}
		return err
	})
	return buf.Bytes(), err
}

func faultsRound(e *env) ([]byte, error) {
	var buf bytes.Buffer
	err := e.study("faults", func() error {
		rows, err := experiments.FaultStudy(e.proto, nil, faultsPoints)
		if err != nil {
			return err
		}
		experiments.PrintFaults(&buf, rows)
		if !experiments.FaultsClean(rows) {
			return fmt.Errorf("fault injection witnessed crash-consistency divergences")
		}
		return nil
	})
	return buf.Bytes(), err
}

// paperSpecs enumerates the Figure 10 + 11 cells at paper scale: every
// Table I kernel at 8 and 4 bits on Clank and NVP, over the paper
// protocol's first three Wi-Fi traces (seeds 1000, 1017, 1034), on the
// input of the given seed. The kernels' instruction streams do not depend
// on input values, so every seed simulates the same cycles and only the
// outputs differ: the seed varies the inputs without varying the work.
func paperSpecs(seed int64) []sweep.Spec {
	var specs []sweep.Spec
	for _, proc := range []core.Processor{core.ProcClank, core.ProcNVP} {
		for _, b := range workloads.All() {
			p := b.DefaultParams()
			size, err := json.Marshal(p)
			if err != nil {
				panic("wnperf: unmarshalable params: " + err.Error())
			}
			for _, bits := range []int{8, 4} {
				for t := int64(0); t < 3; t++ {
					specs = append(specs, sweep.Spec{
						Experiment: "speedup",
						Kernel:     b.Name,
						Variant:    experiments.WNVariant(b, p, bits).String(),
						Processor:  proc.String(),
						Source:     string(energy.SourceWiFi),
						TraceSeed:  1000 + 17*t,
						InputSeed:  seed,
						Params:     map[string]string{"workload": string(size), "bits": strconv.Itoa(bits)},
					})
				}
			}
		}
	}
	return specs
}

// paperRound runs the cells through the protocol's runner; the output is
// each cell's encoded result, one per line.
func paperRound(e *env) ([]byte, error) {
	var buf bytes.Buffer
	err := e.study("speedup", func() error {
		jobs, err := experiments.ResolveSpecs(paperSpecs(e.seed))
		if err != nil {
			return err
		}
		raws, err := e.proto.Runner.Run(jobs)
		for _, raw := range raws {
			buf.Write(raw)
			buf.WriteByte('\n')
		}
		return err
	})
	return buf.Bytes(), err
}
