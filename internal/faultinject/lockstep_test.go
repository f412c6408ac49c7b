package faultinject_test

import (
	"reflect"
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/compiler"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/workloads"
)

// TestLockstepMatchesRun is the lockstep engine's contract: for every
// corpus program — hazard-seeded and clean — under every runtime policy,
// RunLockstep produces a Report identical in every field to the naive
// one-run-per-kill-point campaign, including the exact divergence list
// (kill cycles, first differing words, values).
func TestLockstepMatchesRun(t *testing.T) {
	cases := []struct {
		name  string
		prog  func(t *testing.T) *asm.Program
		sched faultinject.Schedule
	}{
		{"repeated_input", fromFile("repeated_input.s"), faultinject.Schedule{Exhaustive: true, MaxPoints: 256}},
		{"war_crossblock", fromFile("war_crossblock.s"), faultinject.Schedule{Exhaustive: true, MaxPoints: 256}},
		{"commit_order", fromFile("commit_order.s"), faultinject.Schedule{Exhaustive: true, MaxPoints: 256}},
		{"rmw_nonidem", fromFile("rmw_nonidem.s"), faultinject.Schedule{Exhaustive: true, MaxPoints: 256}},
		{"sram_cross", fromFile("sram_cross.s"), faultinject.Schedule{Exhaustive: true, MaxPoints: 128}},
		{"skim_stale_reg", fromFile("skim_stale_reg.s"), faultinject.Schedule{Exhaustive: true}},
		{"clean_accum", fromSource(cleanAccum), faultinject.Schedule{Exhaustive: true}},
		{"clean_strided", fromSource(cleanAccum), faultinject.Schedule{Points: 13}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prog(t)
			target := faultinject.FromProgram(tc.name, p)
			for _, rt := range []string{"clank", "nvp", "undolog", "naive"} {
				cfg := faultinject.Config{Policy: policyFactory(rt)}
				want, err := faultinject.Run(target, cfg, tc.sched)
				if err != nil {
					t.Fatalf("%s: Run: %v", rt, err)
				}
				got, err := faultinject.RunLockstep(target, cfg, tc.sched)
				if err != nil {
					t.Fatalf("%s: RunLockstep: %v", rt, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: lockstep report differs\n naive:    %+v\n lockstep: %+v", rt, want, got)
				}
			}
		})
	}
}

func fromFile(file string) func(t *testing.T) *asm.Program {
	return func(t *testing.T) *asm.Program { return loadProgram(t, file) }
}

func fromSource(src string) func(t *testing.T) *asm.Program {
	return func(t *testing.T) *asm.Program {
		t.Helper()
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// TestLockstepTightBudget pins the budget-line behavior: with a budget too
// small for any re-execution, both engines must report the same
// lost-forward-progress divergences.
func TestLockstepTightBudget(t *testing.T) {
	p := fromSource(cleanAccum)(t)
	target := faultinject.FromProgram("clean_accum", p)
	for _, rt := range []string{"clank", "nvp", "naive"} {
		var costs0 uint64
		{
			// Golden length: run once uninjected to size the tight budget.
			rep, err := faultinject.Run(target, faultinject.Config{Policy: policyFactory(rt)},
				faultinject.Schedule{Points: 1})
			if err != nil {
				t.Fatal(err)
			}
			costs0 = rep.GoldenCycles
		}
		cfg := faultinject.Config{Policy: policyFactory(rt), Budget: costs0 + 8}
		sched := faultinject.Schedule{Exhaustive: true, MaxPoints: 64}
		want, err := faultinject.Run(target, cfg, sched)
		if err != nil {
			t.Fatalf("%s: Run: %v", rt, err)
		}
		got, err := faultinject.RunLockstep(target, cfg, sched)
		if err != nil {
			t.Fatalf("%s: RunLockstep: %v", rt, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: tight-budget lockstep report differs\n naive:    %+v\n lockstep: %+v", rt, want, got)
		}
	}
}

// benchCampaign runs one exhaustive campaign through the given engine.
func benchCampaign(b *testing.B, engine func(faultinject.Target, faultinject.Config, faultinject.Schedule) (*faultinject.Report, error)) {
	b.Helper()
	p, err := asm.Assemble(cleanAccum)
	if err != nil {
		b.Fatal(err)
	}
	target := faultinject.FromProgram("clean_accum", p)
	cfg := faultinject.Config{Policy: policyFactory("clank")}
	sched := faultinject.Schedule{Exhaustive: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := engine(target, cfg, sched)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatalf("unexpected divergence: %s", rep.Divergences[0])
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Points), "kill_points")
		}
	}
}

// BenchmarkExhaustiveNaive measures the one-run-per-kill-point campaign.
func BenchmarkExhaustiveNaive(b *testing.B) { benchCampaign(b, faultinject.Run) }

// BenchmarkExhaustiveLockstep measures the shared-trunk campaign.
func BenchmarkExhaustiveLockstep(b *testing.B) { benchCampaign(b, faultinject.RunLockstep) }

// BenchmarkStridedCampaign measures one fault-study cell: a 512-point
// strided lockstep campaign on the precise Var kernel at its scaled size
// under Clank.
func BenchmarkStridedCampaign(b *testing.B) {
	w := workloads.Var()
	p := w.ScaledParams()
	c, err := compiler.Compile(w.Build(p, 8, false), compiler.Options{Mode: compiler.ModePrecise})
	if err != nil {
		b.Fatal(err)
	}
	target := faultinject.FromCompiled(w.Name, c, w.Inputs(p, 1))
	cfg := faultinject.Config{Policy: policyFactory("clank")}
	sched := faultinject.Schedule{Points: 512}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := faultinject.RunLockstep(target, cfg, sched)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatalf("unexpected divergence: %s", rep.Divergences[0])
		}
	}
}
