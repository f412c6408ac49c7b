package experiments

import (
	"fmt"
	"io"
	"strconv"

	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/quality"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// The Figure 1 scenario: inputs arrive continuously while the device rides
// power outages. A conventional build must finish each input exactly and
// falls behind the arrival rate, dropping inputs (input F arrives while
// the device is still processing D); the WN build commits an acceptable
// approximation at the first outage past a skim point and keeps up.

// StreamRow summarizes one build's behaviour on the input stream.
type StreamRow struct {
	Benchmark string
	Config    string // "precise" or "wn-4bit"
	Arrivals  int
	Processed int
	Dropped   int
	MedianLag float64 // completion lag in units of the arrival period
	NRMSE     float64 // median output error over processed inputs
}

// StreamStudy runs an input stream against both builds of each benchmark.
// A new input lands every arrival period (chosen per benchmark as ~60% of
// the precise build's expected wall completion, so the conventional build
// cannot keep up); inputs arriving while the device is busy are dropped.
//
// The study is two sweeps: one calibration cell per benchmark measures the
// precise build's wall completion on the reference trace, then one stream
// cell per (benchmark, build) replays the stream at the calibrated period,
// which travels in the cell's spec. Every cell of both sweeps runs on one
// shared reference trace.
func StreamStudy(proto Protocol, arrivals int) ([]StreamRow, error) {
	if arrivals <= 0 {
		arrivals = 16
	}
	batch := &batchTable{}
	benches := workloads.All()
	calib := make([]sweep.Job, 0, len(benches))
	for _, b := range benches {
		p := proto.params(b)
		calib = append(calib, sweep.Job{
			Spec: streamSpec("fig1/calibrate", PreciseVariant(b, p), 1, specParams(p)),
			Run:  func() (any, error) { return calibrateStream(batch, b, p) },
		})
	}
	completion, err := runSweep[uint64](proto.runner(), calib)
	if err != nil {
		return nil, fmt.Errorf("figure 1 calibration: %w", err)
	}

	var jobs []sweep.Job
	for i, b := range benches {
		p := proto.params(b)
		period := completion[i] * 6 / 10
		for _, cfg := range []struct {
			name string
			v    Variant
		}{{"precise", PreciseVariant(b, p)}, {"wn-4bit", WNVariant(b, p, 4)}} {
			jobs = append(jobs, sweep.Job{
				Spec: streamSpec("fig1", cfg.v, streamInputSeed, specParams(p,
					"arrivals", itoa(arrivals),
					"period", strconv.FormatUint(period, 10))),
				Run: func() (any, error) { return streamOne(batch, cfg.v, cfg.name, period, arrivals) },
			})
		}
	}
	rows, err := runSweep[StreamRow](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("figure 1: %w", err)
	}
	return rows, nil
}

// The stream runs on a Clank device over the seeded Wi-Fi trace 55; input
// k of the stream is seeded streamInputSeed+k.
const (
	streamTraceSeed = 55
	streamInputSeed = 200
)

func streamSpec(experiment string, v Variant, inputSeed int64, params map[string]string) sweep.Spec {
	return sweep.Spec{
		Experiment: experiment,
		Kernel:     v.Bench.Name,
		Variant:    v.String(),
		Processor:  core.ProcClank.String(),
		Source:     string(energy.SourceWiFi),
		TraceSeed:  streamTraceSeed,
		InputSeed:  inputSeed,
		Params:     params,
	}
}

// calibrateStream measures the precise build's wall completion time, in
// cycles, on the stream's reference trace.
func calibrateStream(batch *batchTable, b *workloads.Benchmark, p workloads.Params) (uint64, error) {
	precise, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return 0, err
	}
	ref := intermittentSystem(core.ProcClank, batch.trace(streamTraceSeed))
	if err := ref.Load(precise); err != nil {
		return 0, err
	}
	res, err := ref.RunInput(b.Inputs(p, 1))
	if err != nil {
		return 0, err
	}
	return res.TotalCycles(), nil
}

func streamOne(batch *batchTable, v Variant, config string, period uint64, arrivals int) (StreamRow, error) {
	b, p := v.Bench, v.Params
	c, err := v.Compile()
	if err != nil {
		return StreamRow{}, err
	}
	sys := intermittentSystem(core.ProcClank, batch.trace(streamTraceSeed))
	if err := sys.Load(c); err != nil {
		return StreamRow{}, err
	}
	row := StreamRow{Benchmark: b.Name, Config: config, Arrivals: arrivals}
	var lags, errs []float64
	now := uint64(0) // wall-clock in cycles, tracked via the supply
	for k := 0; k < arrivals; k++ {
		arrival := uint64(k) * period
		if now > arrival {
			// Device still busy with an older input: this one is lost.
			row.Dropped++
			continue
		}
		in := b.Inputs(p, int64(streamInputSeed+k))
		golden := b.Golden(p, in)
		res, err := sys.RunInput(in)
		if err != nil {
			return StreamRow{}, err
		}
		out, err := sys.Output(b.Output)
		if err != nil {
			return StreamRow{}, err
		}
		now = arrival + res.TotalCycles()
		row.Processed++
		lags = append(lags, float64(res.TotalCycles())/float64(period))
		errs = append(errs, quality.NRMSE(out, golden))
	}
	row.MedianLag = quality.Median(lags)
	row.NRMSE = quality.Median(errs)
	return row, nil
}

// PrintStream renders the study.
func PrintStream(w io.Writer, rows []StreamRow) {
	fmt.Fprintf(w, "Figure 1 scenario: streaming inputs under harvested power (arrival period = 60%% of precise completion)\n")
	fmt.Fprintf(w, "%-10s %-9s %9s %10s %9s %12s %10s\n",
		"Benchmark", "Config", "arrivals", "processed", "dropped", "median lag", "NRMSE %")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-9s %9d %10d %9d %11.2fx %10.3f\n",
			r.Benchmark, r.Config, r.Arrivals, r.Processed, r.Dropped, r.MedianLag, r.NRMSE)
	}
}
