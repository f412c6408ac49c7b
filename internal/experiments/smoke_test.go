package experiments

import (
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/workloads"
)

func TestRuntimeQualitySmoke(t *testing.T) {
	b := workloads.MatAdd()
	c, err := RuntimeQuality(b, b.ScaledParams(), 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) < 5 {
		t.Fatalf("too few points: %d", len(c.Points))
	}
	last := c.Points[len(c.Points)-1]
	if last.NRMSE != 0 {
		t.Fatalf("final NRMSE = %v, want 0 (provisioned SWV is exact)", last.NRMSE)
	}
	if first := c.Points[0]; first.NRMSE <= last.NRMSE {
		t.Fatalf("error does not decrease: first %v last %v", first.NRMSE, last.NRMSE)
	}
	t.Logf("MatAdd 8-bit: final overhead %.2fx, first point (%.2f, %.3f%%)",
		c.FinalOverhead(), c.Points[0].NormRuntime, c.Points[0].NRMSE)
}

func TestSpeedupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("intermittent sweep")
	}
	b := workloads.Var()
	proto := Protocol{Traces: 2, Invocations: 1}
	jobs, err := ResolveSpecs(speedupSpecs(core.ProcClank, b, b.ScaledParams(), 4, proto))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := runSweep[speedupCell](proto.runner(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	row := speedupRow(b, 4, cells)
	t.Logf("Var 4-bit on clank: %.2fx speedup, %.2f%% NRMSE (%d samples)", row.Speedup, row.NRMSE, row.Samples)
	if row.Speedup <= 1.0 {
		t.Errorf("expected speedup > 1, got %.3f", row.Speedup)
	}
}

func TestTable1Smoke(t *testing.T) {
	rows, err := Table1(DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-10s %s amenable %.2f%% cycles %d (%.2f ms)", r.Benchmark, r.Technique, r.AmenablePct, r.Cycles, r.RuntimeMs)
		if r.AmenablePct <= 0 || r.AmenablePct > 60 {
			t.Errorf("%s: implausible amenable%% %.2f", r.Benchmark, r.AmenablePct)
		}
	}
}
