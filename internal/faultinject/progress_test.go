package faultinject_test

import (
	"strings"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
	"whatsnext/internal/workloads"
)

// TestProgressBoundStaticCoversDynamic is the forward-progress direction of
// the cross-validation contract: for every Table I kernel compiled precise,
// the dynamic maximum inter-commit gap observed in the golden run must stay
// within the certificate's static per-region WCEC bound. The static analysis
// charges every instruction its worst case (branch refills always taken,
// full multiplier latency), so static < dynamic anywhere means the analyzer
// is not an upper bound — a soundness bug, not noise.
func TestProgressBoundStaticCoversDynamic(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := tinyParams(b.Name)
			c, err := compiler.Compile(b.Build(p, 8, false), compiler.Options{Mode: compiler.ModePrecise})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			pr := c.Cert.Progress
			if pr == nil || !pr.RegionsFinite {
				t.Fatalf("certificate has no finite progress bound: %+v", pr)
			}

			target := faultinject.FromCompiled(b.Name, c, b.Inputs(p, 1))
			rep, err := faultinject.CrossValidate(target, faultinject.CrossConfig{
				Config:    faultinject.Config{Policy: policyFactory("nvp")},
				MaxPoints: 4,
			}, c.Cert)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.ProgressChecked {
				t.Fatal("progress bound not checked despite finite certificate")
			}
			if rep.StaticRegionBound != pr.MaxRegionWCEC {
				t.Errorf("report bound %d != certificate bound %d", rep.StaticRegionBound, pr.MaxRegionWCEC)
			}
			if rep.MaxCommitGap == 0 {
				t.Error("dynamic max commit gap = 0: golden run measured nothing")
			}
			if rep.ProgressViolation || rep.MaxCommitGap > rep.StaticRegionBound {
				t.Errorf("dynamic gap %d exceeds static region bound %d", rep.MaxCommitGap, rep.StaticRegionBound)
			}
			if rep.ProgressViolation && rep.Validated() {
				t.Error("Validated() ignored a progress violation")
			}
			t.Logf("dynamic max gap %d cycles <= static bound %d cycles (%.1f%% tight)",
				rep.MaxCommitGap, rep.StaticRegionBound,
				100*float64(rep.MaxCommitGap)/float64(rep.StaticRegionBound))
		})
	}
}

// TestProgressGapSplitsAtSkimPoints pins down that the dynamic measurement
// actually resets at commit boundaries: a skim-mode build executes SKM
// points mid-run, so its worst inter-commit gap must be strictly smaller
// than the whole golden run.
func TestProgressGapSplitsAtSkimPoints(t *testing.T) {
	b, err := workloads.ByName("MatMul")
	if err != nil {
		t.Fatal(err)
	}
	p := tinyParams(b.Name)
	c, err := compiler.Compile(b.Build(p, 8, false), compiler.Options{Mode: b.Mode})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	target := faultinject.FromCompiled(b.Name, c, b.Inputs(p, 1))
	rep, err := faultinject.CrossValidate(target, faultinject.CrossConfig{
		Config:    faultinject.Config{Policy: policyFactory("nvp")},
		MaxPoints: 2,
	}, c.Cert)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ProgressChecked {
		t.Fatal("progress bound not checked")
	}
	if rep.MaxCommitGap == 0 || rep.MaxCommitGap >= rep.GoldenCycles {
		t.Errorf("max commit gap %d should be a proper fraction of the %d-cycle run",
			rep.MaxCommitGap, rep.GoldenCycles)
	}
	if rep.MaxCommitGap > rep.StaticRegionBound {
		t.Errorf("dynamic gap %d exceeds static region bound %d", rep.MaxCommitGap, rep.StaticRegionBound)
	}
}

// TestLivelockFlaggedAndWitnessed closes the loop on WN201: the seeded
// poll-forever program is statically flagged with the exact loop extent,
// refused a finite region bound, and dynamically witnessed livelocking —
// the runner exhausts its cycle budget without halting.
func TestLivelockFlaggedAndWitnessed(t *testing.T) {
	p := loadProgram(t, "livelock.s")

	// Static half: WN201 on exactly the poll loop (LDR..BNE), no finite
	// per-region WCEC.
	res, cert, err := wncheck.Verify(p, wncheck.Options{Progress: true})
	if err != nil {
		t.Fatal(err)
	}
	var d *wncheck.Diagnostic
	for i := range res.Diags {
		if res.Diags[i].Code == wncheck.CodeLivelock {
			d = &res.Diags[i]
			break
		}
	}
	if d == nil {
		t.Fatalf("WN201 not reported; diags: %v", res.Diags)
	}
	if d.Severity != wncheck.Error {
		t.Errorf("WN201 severity = %v, want Error", d.Severity)
	}
	wantLo := uint32(mem.CodeBase + 2*isa.InstBytes)
	wantHi := uint32(mem.CodeBase + 4*isa.InstBytes)
	if d.RegionStart != wantLo || d.RegionEnd != wantHi {
		t.Errorf("WN201 region = %#x..%#x, want %#x..%#x (the poll loop)",
			d.RegionStart, d.RegionEnd, wantLo, wantHi)
	}
	if cert.Progress == nil || cert.Progress.RegionsFinite {
		t.Errorf("certificate claims finite regions for a livelocking program: %+v", cert.Progress)
	}

	// Dynamic half: the program never halts — the runner's cycle budget
	// guard fires, witnessing exactly the livelock the static extent names.
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(p.Image); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(m)
	c.SetAmenablePCs(p.Amenable)
	supply := energy.NewSupply(energy.DefaultDeviceConfig(), energy.ConstantTrace(1, 10, 1))
	r := intermittent.NewRunner(c, m, supply, intermittent.NewNVP(intermittent.DefaultNVPConfig()))
	r.MaxCycles = 200_000
	if _, err := r.RunToHalt(); err != intermittent.ErrCycleBudget {
		t.Fatalf("RunToHalt err = %v, want ErrCycleBudget (livelock witness)", err)
	}
	if c.Halted {
		t.Fatal("livelock program halted")
	}
}

// TestLivelockGoldenRunBounded: a golden run that never halts is an error
// naming its bound, not a hang. RunLockstep and CrossValidate both honour
// Config.Budget for it.
func TestLivelockGoldenRunBounded(t *testing.T) {
	p := loadProgram(t, "livelock.s")
	_, cert, err := wncheck.Verify(p, wncheck.Options{Progress: true})
	if err != nil {
		t.Fatal(err)
	}
	target := faultinject.FromProgram("livelock.s", p)
	cfg := faultinject.Config{Policy: policyFactory("nvp"), Budget: 1 << 16}
	_, err = faultinject.RunLockstep(target, cfg, faultinject.Schedule{Exhaustive: true})
	if err == nil || !strings.Contains(err.Error(), "did not halt within 65536 cycles") {
		t.Errorf("RunLockstep: err = %v, want the golden run's 65536-cycle bound", err)
	}
	_, err = faultinject.CrossValidate(target, faultinject.CrossConfig{Config: cfg}, cert)
	if err == nil || !strings.Contains(err.Error(), "did not halt within 65536 cycles") {
		t.Errorf("CrossValidate: err = %v, want the golden run's 65536-cycle bound", err)
	}
}
