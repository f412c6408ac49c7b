package faultinject_test

import (
	"reflect"
	"strings"
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/compiler"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/mem"
	"whatsnext/internal/nn"
	"whatsnext/internal/workloads"
)

// TestLockstepMatchesRun is the lockstep engine's contract: for every
// corpus program — hazard-seeded and clean — under every runtime policy,
// RunLockstep produces a Report identical in every field to the naive
// one-run-per-kill-point campaign, including the exact divergence list
// (kill cycles, first differing words, values). The two NN targets pin
// Restart, whose forks reboot at the entry point: the progress-embedded
// build is clean under it and the multi-pass build diverges.
func TestLockstepMatchesRun(t *testing.T) {
	cases := []struct {
		name  string
		prog  func(t *testing.T) faultinject.Target
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
		{"sram_pointer", fromSource(sramPointer), faultinject.Schedule{Exhaustive: true}},
		{"nn_embedded", nnConv(compiler.ModePrecise, 8, compiler.Options{ProgressEmbed: true}), faultinject.Schedule{Exhaustive: true, MaxPoints: 96}},
		{"nn_multipass", nnConv(compiler.ModeSWP, 4, compiler.Options{}), faultinject.Schedule{Points: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := tc.prog(t)
			for _, rt := range []string{"clank", "nvp", "undolog", "naive", "restart"} {
				cfg := faultinject.Config{Policy: policyFactory(rt)}
				want, err := faultinject.RunNaive(target, cfg, tc.sched)
				if err != nil {
					t.Fatalf("%s: RunNaive: %v", rt, err)
				}
				got, err := faultinject.RunLockstep(target, cfg, tc.sched)
				if err != nil {
					t.Fatalf("%s: RunLockstep: %v", rt, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: lockstep report differs\n naive:    %+v\n lockstep: %+v", rt, want, got)
				}
				if rt == "nvp" && tc.name == "sram_pointer" && !hasDivergenceAt(got, mem.DataBase) {
					t.Errorf("nvp: no divergence first differs at %#08x, the word only a wiped pointer writes: %+v", mem.DataBase, got)
				}
				if rt == "restart" && strings.HasPrefix(tc.name, "nn_") && got.Clean() != (tc.name == "nn_embedded") {
					t.Errorf("restart: clean = %v; want only the progress-embedded build clean", got.Clean())
				}
			}
		})
	}
}

// sramPointer keeps a store's address offset in volatile SRAM across a
// spin loop. Uninterrupted, it stores one byte to data+257 only; under NVP
// an outage in the spin wipes the offset, so the injected run stores to
// data+1 instead: its first differing word lies outside every byte the
// golden run wrote, and neither written byte starts its word.
const sramPointer = `
	MOVI R0, #0
	MOVTI R0, #4096
	MOVI R1, #0
	MOVTI R1, #8192
	MOVI R2, #256
	STR R2, [R1, #0]
	MOVI R3, #20
spin:
	SUBIS R3, R3, #1
	BNE spin
	LDR R4, [R1, #0]
	ADD R5, R0, R4
	MOVI R6, #9
	STRB R6, [R5, #1]
	HALT
`

// hasDivergenceAt reports whether some divergence in rep first differs at
// addr.
func hasDivergenceAt(rep *faultinject.Report, addr uint32) bool {
	for _, d := range rep.Divergences {
		if d.Halted && d.Addr == addr {
			return true
		}
	}
	return false
}

func fromFile(file string) func(t *testing.T) faultinject.Target {
	return func(t *testing.T) faultinject.Target {
		return faultinject.FromProgram(file, loadProgram(t, file))
	}
}

func fromSource(src string) func(t *testing.T) faultinject.Target {
	return func(t *testing.T) faultinject.Target {
		t.Helper()
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		return faultinject.FromProgram("source", p)
	}
}

// nnConv builds a campaign-sized NNConv target with the given compiler
// configuration.
func nnConv(mode compiler.Mode, bits int, opts compiler.Options) func(t *testing.T) faultinject.Target {
	return func(t *testing.T) faultinject.Target {
		t.Helper()
		b := nn.NNConv()
		p := workloads.Params{ImgW: 6, ImgH: 5, K: 3}
		opts.Mode = mode
		c, err := compiler.Compile(b.Build(p, bits, true), opts)
		if err != nil {
			t.Fatal(err)
		}
		return faultinject.FromCompiled(b.Name, c, b.Inputs(p, 7))
	}
}

// TestLockstepTightBudget pins the budget-line behavior: with a budget too
// small for any re-execution, both engines must report the same
// lost-forward-progress divergences.
func TestLockstepTightBudget(t *testing.T) {
	target := fromSource(cleanAccum)(t)
	for _, rt := range []string{"clank", "nvp", "naive"} {
		var costs0 uint64
		{
			// Golden length: run once uninjected to size the tight budget.
			rep, err := faultinject.RunLockstep(target, faultinject.Config{Policy: policyFactory(rt)},
				faultinject.Schedule{Points: 1})
			if err != nil {
				t.Fatal(err)
			}
			costs0 = rep.GoldenCycles
		}
		cfg := faultinject.Config{Policy: policyFactory(rt), Budget: costs0 + 8}
		sched := faultinject.Schedule{Exhaustive: true, MaxPoints: 64}
		want, err := faultinject.RunNaive(target, cfg, sched)
		if err != nil {
			t.Fatalf("%s: RunNaive: %v", rt, err)
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

// BenchmarkExhaustiveNaive measures the one-run-per-kill-point campaign,
// the reference engine kept in the tests.
func BenchmarkExhaustiveNaive(b *testing.B) { benchCampaign(b, faultinject.RunNaive) }

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
