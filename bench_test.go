// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per exhibit). Custom metrics attach the headline numbers —
// speedups, NRMSE — to the benchmark output; `go run ./cmd/wnbench` prints
// the full rows and series.
//
//	go test -bench=. -benchmem
package whatsnext_test

import (
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/experiments"
	"whatsnext/internal/synthmodel"
)

func proto() experiments.Protocol { return experiments.DefaultProtocol() }

// BenchmarkTableI measures the benchmark characteristics table: dynamic
// WN-amenable instruction share and precise runtime per kernel.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(proto())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var amen float64
			for _, r := range rows {
				amen += r.AmenablePct
			}
			b.ReportMetric(amen/float64(len(rows)), "avg_amenable_%")
		}
	}
}

// BenchmarkFigure2 regenerates the Conv2d budgeted-output comparison.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2(proto(), "")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.BaselineNRMSE, "baseline_nrmse_%")
			b.ReportMetric(r.WNNRMSE, "wn_nrmse_%")
		}
	}
}

// BenchmarkFigure3 regenerates the glucose sampling-vs-anytime study.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3(7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.AnytimeAvgErrPct, "anytime_err_%")
			b.ReportMetric(float64(r.SampledProcessed), "sampled_readings")
		}
	}
}

// BenchmarkFigure9 regenerates the twelve runtime-quality curves.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Figure9(proto(), 60)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var over float64
			for _, c := range curves {
				over += c.FinalOverhead()
			}
			b.ReportMetric(over/float64(len(curves)), "avg_final_overhead_x")
		}
	}
}

// BenchmarkFigure10 regenerates the checkpointing-volatile-processor
// speedup study (paper averages: 1.78x at 8-bit, 3.02x at 4-bit).
func BenchmarkFigure10(b *testing.B) {
	benchSpeedup(b, core.ProcClank)
}

// BenchmarkFigure11 regenerates the non-volatile-processor speedup study
// (paper averages: 1.41x at 8-bit, 2.26x at 4-bit).
func BenchmarkFigure11(b *testing.B) {
	benchSpeedup(b, core.ProcNVP)
}

func benchSpeedup(b *testing.B, proc core.Processor) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SpeedupStudy(proc, proto())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			s8, e8 := experiments.SpeedupSummary(rows, 8)
			s4, e4 := experiments.SpeedupSummary(rows, 4)
			b.ReportMetric(s8, "speedup8_x")
			b.ReportMetric(s4, "speedup4_x")
			b.ReportMetric(e8, "nrmse8_%")
			b.ReportMetric(e4, "nrmse4_%")
		}
	}
}

// BenchmarkFigure12 regenerates the SWP+vectorized-loads study.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure12(proto())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Bits == 4 {
					b.ReportMetric(r.EarlierBy, "earlier4_x")
				} else if r.Bits == 8 {
					b.ReportMetric(r.EarlierBy, "earlier8_x")
				}
			}
		}
	}
}

// BenchmarkFigure13 regenerates the memoization + zero-skipping study.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure13(proto())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				switch r.Config {
				case "precise":
					b.ReportMetric(r.WithTable, "precise_memo_x")
				case "4-bit":
					b.ReportMetric(r.WithTable, "swp4_memo_x")
				}
			}
		}
	}
}

// BenchmarkFigure14 regenerates the provisioned-vs-unprovisioned study.
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prov, unprov, err := experiments.Figure14(proto(), 60)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(prov.Points[len(prov.Points)-1].NRMSE, "prov_final_%")
			b.ReportMetric(unprov.Points[len(unprov.Points)-1].NRMSE, "unprov_final_%")
		}
	}
}

// BenchmarkFigure15 regenerates the small-subword sweep.
func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure15(proto())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Speedup, "speedup_1bit_x")
		}
	}
}

// BenchmarkFigure16 regenerates the small-subword visual outputs.
func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure16(proto(), "")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(r.Rows) > 0 {
			b.ReportMetric(r.Rows[0].NRMSE, "nrmse_1bit_%")
		}
	}
}

// BenchmarkFigure17 regenerates the Var stream comparison.
func BenchmarkFigure17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, avg, err := experiments.Figure17(proto())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(avg, "wn_avg_err_%")
		}
	}
}

// BenchmarkFigure1 runs the streaming forward-progress scenario of the
// paper's Figure 1: conventional processing drops inputs; WN keeps up.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StreamStudy(proto(), 12)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var preciseDropped, wnDropped int
			for _, r := range rows {
				if r.Config == "precise" {
					preciseDropped += r.Dropped
				} else {
					wnDropped += r.Dropped
				}
			}
			b.ReportMetric(float64(preciseDropped), "precise_dropped")
			b.ReportMetric(float64(wnDropped), "wn_dropped")
		}
	}
}

// BenchmarkAblations runs the extension studies: skim-point isolation,
// watchdog and capacitor sweeps, and the memo-capacity sweep.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SkimAblation(proto())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.WatchdogSweep(proto(), []uint64{1024, 8192}); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.CapacitorSweep(proto(), []float64{10, 47}); err != nil {
			b.Fatal(err)
		}
		memo, err := experiments.MemoEntriesSweep(proto(), []int{16, 256})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var with, without float64
			for _, r := range rows {
				with += r.WithSkim
				without += r.WithoutSkim
			}
			b.ReportMetric(with/float64(len(rows)), "avg_with_skim_x")
			b.ReportMetric(without/float64(len(rows)), "avg_without_skim_x")
			b.ReportMetric(memo[0].HitRate*100, "memo16_hit_%")
		}
	}
}

// BenchmarkFaultStudy runs the strided fault-injection study serially: 512
// power failures per cell, every Table I kernel under Clank and NVP. It is
// the Go counterpart of bench/wnperf's faults-strided workload and fails
// on any divergence.
func BenchmarkFaultStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.FaultStudy(proto(), nil, 512)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Divergences > 0 {
				b.Fatalf("%s under %s: %d divergent kill points, first: %s",
					r.Benchmark, r.Runtime, r.Divergences, r.FirstWitness)
			}
		}
		if i == 0 {
			b.ReportMetric(float64(len(rows)), "cells")
		}
	}
}

// BenchmarkEnvironments sweeps the harvest-source extension study.
func BenchmarkEnvironments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.EnvironmentStudy(proto())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Source == energy.SourceWiFi {
					b.ReportMetric(r.Speedup, "wifi_speedup_x")
				}
			}
		}
	}
}

// BenchmarkAreaPower evaluates the Section V-D analytical model.
func BenchmarkAreaPower(b *testing.B) {
	clock := energy.DefaultDeviceConfig().ClockHz
	var r synthmodel.Report
	for i := 0; i < b.N; i++ {
		r = synthmodel.Evaluate(clock)
	}
	b.ReportMetric(r.AdderAreaOverheadPct, "adder_area_%")
	b.ReportMetric(r.AdderPowerPct, "adder_power_%")
	b.ReportMetric(r.MemoVsMultiplierPct, "memo_vs_mult_%")
}
