package faultinject_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/compiler"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
	"whatsnext/internal/workloads"
)

// tinyParams shrinks each Table I kernel to a size where strided fault
// injection stays fast while still exercising every loop and store pattern
// the full-size kernel has.
func tinyParams(name string) workloads.Params {
	switch name {
	case "Conv2d":
		return workloads.Params{ImgW: 6, ImgH: 6, K: 3}
	case "MatMul":
		return workloads.Params{N: 6}
	case "MatAdd":
		return workloads.Params{N: 8}
	case "Home":
		return workloads.Params{Windows: 4, WindowSize: 8}
	case "Var":
		return workloads.Params{Windows: 4, WindowSize: 8}
	case "NetMotion":
		return workloads.Params{Steps: 48}
	}
	return workloads.Params{}
}

// TestKernelsCertifiedAndSurviveInjection is the kernel-level
// cross-validation: every Table I benchmark, compiled precise, is (a)
// certified crash-consistent by the static analysis — zero error-severity
// findings and an empty flagged-region set in the verification certificate —
// and (b) sound under certificate-driven injection: CrossValidate samples
// instruction boundaries across the run and every one of them, being in
// proven territory, must reproduce the golden memory bit-exactly under
// Clank, NVP, and the undo log.
//
// Precise variants are the right vehicle for the bit-exactness half: skim
// builds legitimately commit approximate results when a failure takes the
// skim-resume path, so their final memory is allowed to differ from an
// uninterrupted run by design.
func TestKernelsCertifiedAndSurviveInjection(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := tinyParams(b.Name)
			k := b.Build(p, 8, false)
			c, err := compiler.Compile(k, compiler.Options{Mode: compiler.ModePrecise})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}

			res, cert, err := wncheck.Verify(c.Program, wncheck.Options{Crash: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range res.Diags {
				if d.Severity >= wncheck.Error {
					t.Fatalf("static certification failed: %s", d)
				}
			}
			if len(cert.Flagged) > 0 {
				t.Fatalf("certificate is not clean: flagged regions %+v", cert.Flagged)
			}

			target := faultinject.FromCompiled(b.Name, c, b.Inputs(p, 1))
			for _, rt := range []string{"clank", "nvp", "undolog"} {
				rep, err := faultinject.CrossValidate(target,
					faultinject.CrossConfig{
						Config:    faultinject.Config{Policy: policyFactory(rt)},
						MaxPoints: 24,
					}, cert)
				if err != nil {
					t.Fatalf("%s: %v", rt, err)
				}
				if !rep.Validated() {
					t.Errorf("%s: %s; first violation: %s", rt, rep, rep.Violations[0])
					continue
				}
				t.Logf("%s: %d certified boundaries clean over %d golden cycles",
					rt, rep.CertifiedPoints, rep.GoldenCycles)
			}
		})
	}
}

// TestCrossValidateMatchesFromReset is CrossValidate's engine contract: it
// forks every kill point from the campaign's shared trunk, in cycle order,
// and its CrossReport must be identical in every field to the from-reset
// engine's, which replays each selected boundary from reset in the
// selection's own flagged-first order. The cases cover every seeded-hazard
// program under the runtimes its tests use, input words advanced on every
// fork (repeated_input.s), a MaxPoints-sampled selection whose flagged
// boundaries precede earlier certified ones (commit_order.s), and budgets
// too tight for some re-executions to finish.
func TestCrossValidateMatchesFromReset(t *testing.T) {
	input := []wncheck.AddrRange{{Start: mem.DataBase, End: mem.DataBase + 4}}
	crash := wncheck.Options{Crash: true}
	var plain, inputs, sampled faultinject.CrossConfig
	inputs.InputWords = []uint32{mem.DataBase}
	// 206 of commit_order.s's 214 boundaries are flagged: the selection
	// keeps them, then 3 of the 8 certified ones, cycle 0 among them.
	sampled.MaxPoints = 209
	cases := []struct {
		file     string
		runtimes []string
		opts     wncheck.Options
		cfg      faultinject.CrossConfig // Policy is filled per runtime
	}{
		{"repeated_input.s", []string{"nvp", "clank", "undolog"}, wncheck.Options{Crash: true, Input: input}, inputs},
		{"war_crossblock.s", []string{"naive", "clank"}, crash, plain},
		{"commit_order.s", []string{"clank", "nvp", "undolog"}, crash, plain},
		{"commit_order.s", []string{"clank", "nvp", "undolog"}, crash, sampled},
		{"rmw_nonidem.s", []string{"naive", "undolog"}, crash, plain},
		{"clank_stage.s", []string{"clank", "nvp"}, crash, plain},
		{"skim_stale_reg.s", []string{"clank", "nvp", "undolog"}, crash, plain},
		// From reset, sram_cross.s costs 8k boundaries x 12k cycles per
		// runtime, so it runs under Clank alone.
		{"sram_cross.s", []string{"clank"}, crash, plain},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			p := loadProgram(t, tc.file)
			_, cert, err := wncheck.Verify(p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			target := faultinject.FromProgram(tc.file, p)
			// A small geometry keeps the from-reset engine's per-point
			// device construction cheap; both engines run on the same one.
			target.Mem = mem.Config{CodeBytes: 1 << 10, DataBytes: 1 << 10, SRAMBytes: 1 << 10}
			for _, rt := range tc.runtimes {
				cfg := tc.cfg
				cfg.Policy = policyFactory(rt)
				want := matchFromReset(t, rt, target, cfg, cert)
				if cfg.MaxPoints > 0 {
					// The flagged-first selection is out of cycle order when
					// a certified boundary (cycle 0, the entry PC) precedes
					// a flagged one.
					for _, o := range want.Outcomes {
						if o.Region.Start <= mem.CodeBase+isa.InstBytes || o.Witness == nil || o.Witness.KillCycle == 0 {
							t.Fatalf("%s: region %+v does not put the selection out of cycle order", rt, o)
						}
					}
					if want.Points != cfg.MaxPoints || want.CertifiedPoints == 0 {
						t.Fatalf("%s: %d points, %d certified: not a sampled mix", rt, want.Points, want.CertifiedPoints)
					}
				}
				// A budget a few cycles past the golden run: re-executions
				// that cannot finish inside it lose forward progress.
				cfg.Budget = want.GoldenCycles + 24
				tight := matchFromReset(t, rt+" tight", target, cfg, cert)
				if tc.file == "commit_order.s" && len(tight.Violations)+tight.Residual == 0 {
					t.Errorf("%s: tight budget lost no run", rt)
				}
			}
		})
	}
}

// matchFromReset runs CrossValidate and its from-reset oracle and fails the
// test unless the two reports are identical.
func matchFromReset(t *testing.T, label string, target faultinject.Target, cfg faultinject.CrossConfig, cert *wncheck.Certificate) *faultinject.CrossReport {
	t.Helper()
	want, err := faultinject.CrossValidateFromReset(target, cfg, cert)
	if err != nil {
		t.Fatalf("%s: from reset: %v", label, err)
	}
	got, err := faultinject.CrossValidate(target, cfg, cert)
	if err != nil {
		t.Fatalf("%s: CrossValidate: %v", label, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: CrossValidate report differs\n from reset: %+v\n campaign:   %+v", label, want, got)
	}
	return got
}

// BenchmarkCrossValidate measures one exhaustive certificate-driven
// campaign: all 1,209 instruction boundaries of the seeded WN104 program
// skim_stale_reg.s under Clank, nearly all of them in its flagged window.
func BenchmarkCrossValidate(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("testdata", "skim_stale_reg.s"))
	if err != nil {
		b.Fatal(err)
	}
	p, err := asm.AssembleNamed("skim_stale_reg.s", string(src))
	if err != nil {
		b.Fatal(err)
	}
	_, cert, err := wncheck.Verify(p, wncheck.Options{Crash: true})
	if err != nil {
		b.Fatal(err)
	}
	target := faultinject.FromProgram("skim_stale_reg.s", p)
	cfg := faultinject.CrossConfig{Config: faultinject.Config{Policy: policyFactory("clank")}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := faultinject.CrossValidate(target, cfg, cert)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Validated() {
			b.Fatalf("not validated: %s", rep)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Points), "kill_points")
		}
	}
}
