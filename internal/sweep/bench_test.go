package sweep_test

import (
	"fmt"
	"runtime"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/experiments"
	"whatsnext/internal/sweep"
)

// BenchmarkSweepParallel measures the wall-clock effect of the worker pool
// on a Figure 10-style multi-trace speedup sweep (every benchmark, 8- and
// 4-bit, 4 Wi-Fi traces — 48 independent cells). On a multi-core host the
// 4+ worker configurations should complete the identical job set at least
// 2x faster than workers=1; results are byte-identical regardless
// (TestExperimentDeterminism enforces that).
//
//	go test -bench SweepParallel -benchtime 2x ./internal/sweep/
func BenchmarkSweepParallel(b *testing.B) {
	workerCounts := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := sweep.New(sweep.Options{Workers: workers})
				proto := experiments.Protocol{Traces: 4, Invocations: 1, Runner: eng}
				rows, err := experiments.SpeedupStudy(core.ProcClank, proto)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					sp, _ := experiments.SpeedupSummary(rows, 4)
					b.ReportMetric(sp, "wn_speedup_4bit")
					m := eng.Metrics()
					b.ReportMetric(float64(m.Done), "jobs")
					b.ReportMetric(float64(m.SimCycles)/1e6, "sim_Mcycles")
				}
			}
		})
	}
}

// BenchmarkSweepCached measures the warm-cache path: the same sweep served
// entirely from the in-memory result cache.
func BenchmarkSweepCached(b *testing.B) {
	cache := sweep.NewMemoryCache()
	run := func() error {
		eng := sweep.New(sweep.Options{Workers: 1, Cache: cache})
		proto := experiments.Protocol{Traces: 4, Invocations: 1, Runner: eng}
		_, err := experiments.SpeedupStudy(core.ProcClank, proto)
		return err
	}
	if err := run(); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
