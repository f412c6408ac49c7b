package faultinject_test

import (
	"os"
	"path/filepath"
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/intermittent/policytest"
	"whatsnext/internal/wncheck"
)

func loadProgram(t *testing.T, file string) *asm.Program {
	t.Helper()
	path := filepath.Join("testdata", file)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.AssembleNamed(path, string(src))
	if err != nil {
		t.Fatalf("assemble %s: %v", file, err)
	}
	return p
}

func policyFactory(name string) func() intermittent.Policy {
	switch name {
	case "clank":
		return func() intermittent.Policy { return intermittent.NewClank(intermittent.DefaultClankConfig()) }
	case "nvp":
		return func() intermittent.Policy { return intermittent.NewNVP(intermittent.DefaultNVPConfig()) }
	case "undolog":
		return func() intermittent.Policy { return intermittent.NewUndoLog(intermittent.DefaultUndoLogConfig()) }
	case "naive":
		return func() intermittent.Policy { return policytest.NewNaive(policytest.DefaultNaiveConfig()) }
	case "restart":
		return func() intermittent.Policy { return policytest.NewRestart(policytest.DefaultRestartConfig()) }
	}
	panic("unknown policy " + name)
}

// TestSeededHazardsFlaggedAndWitnessed is one direction of the
// cross-validation contract: every seeded-hazard program is flagged by the
// static crash analysis AND the injector produces a concrete divergence
// (cycle of failure + first differing word) under the runtimes the hazard
// reaches.
//
// clank_stage.s is deliberately absent under the undo log: its only
// checkpoint is the attach-time one, so a rollback re-executes the whole
// program — including the SRAM store — and the staged value is rebuilt.
// The hazard needs a mid-program checkpoint (Clank's violation
// checkpoint) or in-place resumption (NVP) to be observable.
func TestSeededHazardsFlaggedAndWitnessed(t *testing.T) {
	cases := []struct {
		file     string
		code     string
		runtimes []string
		sched    faultinject.Schedule
	}{
		{
			file: "sram_cross.s", code: wncheck.CodeVolatileCross,
			runtimes: []string{"clank", "nvp", "undolog"},
			// ~12k boundaries: sample 512 of them to keep the test quick.
			sched: faultinject.Schedule{Exhaustive: true, MaxPoints: 512},
		},
		{
			file: "clank_stage.s", code: wncheck.CodeVolatileCross,
			runtimes: []string{"clank", "nvp"},
			sched:    faultinject.Schedule{Exhaustive: true},
		},
		{
			file: "skim_stale_reg.s", code: wncheck.CodeSkimStaleReg,
			runtimes: []string{"clank", "nvp", "undolog"},
			sched:    faultinject.Schedule{Exhaustive: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			p := loadProgram(t, tc.file)

			res, err := wncheck.Check(p, wncheck.Options{Crash: true})
			if err != nil {
				t.Fatal(err)
			}
			flagged := false
			for _, d := range res.Diags {
				if d.Code == tc.code {
					flagged = true
					if d.RegionStart == 0 && d.RegionEnd == 0 {
						t.Errorf("%s finding has no region extent", tc.code)
					}
				}
			}
			if !flagged {
				t.Fatalf("static analysis did not flag %s with %s: %v", tc.file, tc.code, res.Diags)
			}

			target := faultinject.FromProgram(tc.file, p)
			for _, rt := range tc.runtimes {
				rep, err := faultinject.RunLockstep(target, faultinject.Config{Policy: policyFactory(rt)}, tc.sched)
				if err != nil {
					t.Fatalf("%s: %v", rt, err)
				}
				if rep.Clean() {
					t.Errorf("%s: injector found no divergence over %d kill points; the static %s flag is unwitnessed",
						rt, rep.Points, tc.code)
					continue
				}
				t.Logf("%s under %s: %d/%d kill points diverge; first witness: %s",
					tc.file, rt, len(rep.Divergences), rep.Points, rep.Divergences[0])
			}
		})
	}
}

// cleanAccum is a read-modify-write NV kernel with no SRAM staging and no
// skim point: the access pattern the runtimes exist to protect. The static
// crash analysis certifies it (no WN10x) and exhaustive injection must
// find zero divergence — the other direction of the contract.
const cleanAccum = `
	MOVI R10, #3
outer:
	MOVI R0, #0
	MOVTI R0, #4096
	MOVI R1, #0
loop:
	LDR R2, [R0, #0]
	ADD R2, R2, R1
	STR R2, [R0, #0]
	ADDI R0, R0, #4
	ADDI R1, R1, #1
	CMPI R1, #8
	BLT loop
	SUBIS R10, R10, #1
	BNE outer
	HALT
`

func TestCleanProgramZeroDivergence(t *testing.T) {
	p, err := asm.Assemble(cleanAccum)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wncheck.Check(p, wncheck.Options{Crash: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diags {
		if d.Severity >= wncheck.Error {
			t.Fatalf("program expected clean, got %s", d)
		}
	}
	target := faultinject.FromProgram("accum", p)
	for _, rt := range []string{"clank", "nvp", "undolog"} {
		rep, err := faultinject.RunLockstep(target, faultinject.Config{Policy: policyFactory(rt)},
			faultinject.Schedule{Exhaustive: true})
		if err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		if !rep.Clean() {
			t.Errorf("%s: statically-clean program diverged: %s", rt, rep.Divergences[0])
		}
		if rep.Points == 0 {
			t.Errorf("%s: no kill points injected", rt)
		}
	}
}

// Strided schedules must spread kill points across the run and map each to
// the retiring instruction count.
func TestStridedSchedule(t *testing.T) {
	p, err := asm.Assemble(cleanAccum)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := faultinject.RunLockstep(faultinject.FromProgram("accum", p),
		faultinject.Config{Policy: policyFactory("nvp")},
		faultinject.Schedule{Points: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != 7 {
		t.Fatalf("Points = %d, want 7", rep.Points)
	}
	if !rep.Clean() {
		t.Fatalf("unexpected divergence: %s", rep.Divergences[0])
	}
	if rep.StrideCycles == 0 || rep.StrideCycles >= rep.GoldenCycles {
		t.Fatalf("implausible stride %d for %d golden cycles", rep.StrideCycles, rep.GoldenCycles)
	}
}

// A stride-k schedule is a contract, not a heuristic: the injected kill
// cycles must be exactly k*total/(n+1) for k = 1..n, in order, as recorded
// in Report.Schedule.
func TestStridedScheduleExactCycles(t *testing.T) {
	p, err := asm.Assemble(cleanAccum)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	rep, err := faultinject.RunLockstep(faultinject.FromProgram("accum", p),
		faultinject.Config{Policy: policyFactory("nvp")},
		faultinject.Schedule{Points: n})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schedule) != n {
		t.Fatalf("Schedule has %d cycles, want %d: %v", len(rep.Schedule), n, rep.Schedule)
	}
	for k := uint64(1); k <= n; k++ {
		want := k * rep.GoldenCycles / (n + 1)
		if got := rep.Schedule[k-1]; got != want {
			t.Errorf("Schedule[%d] = %d, want %d (k*total/(n+1) with total %d)",
				k-1, got, want, rep.GoldenCycles)
		}
	}
}

// sramStage is a WN103 hazard small enough for a full exhaustive campaign:
// a result staged in volatile SRAM, read back after a windowed delay. Under
// NVP any failure inside the window wipes the staged word.
const sramStage = `
	MOVI R0, #0
	MOVTI R0, #4096
	MOVI R1, #0
	MOVTI R1, #8192
	LDR R2, [R0, #0]
	ADDI R2, R2, #7
	STR R2, [R1, #0]
	MOVI R3, #40
spin:
	SUBIS R3, R3, #1
	BNE spin
	LDR R4, [R1, #0]
	STR R4, [R0, #4]
	HALT
`

// An exhaustive campaign kills at every boundary a strided one samples, so
// its witness set must be a superset of the strided one's: every kill
// instruction the strided schedule found divergent must be divergent in the
// exhaustive report too.
func TestExhaustiveSupersetOfStridedWitnesses(t *testing.T) {
	p, err := asm.Assemble(sramStage)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wncheck.Check(p, wncheck.Options{Crash: true})
	if err != nil {
		t.Fatal(err)
	}
	hasWN103 := false
	for _, d := range res.Diags {
		if d.Code == wncheck.CodeVolatileCross {
			hasWN103 = true
		}
	}
	if !hasWN103 {
		t.Fatalf("seeded program not flagged with WN103: %v", res.Diags)
	}

	target := faultinject.FromProgram("sram_stage", p)
	cfg := faultinject.Config{Policy: policyFactory("nvp")}
	strided, err := faultinject.RunLockstep(target, cfg, faultinject.Schedule{Points: 16})
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := faultinject.RunLockstep(target, cfg, faultinject.Schedule{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if strided.Clean() || exhaustive.Clean() {
		t.Fatalf("expected both campaigns to witness the hazard (strided %d, exhaustive %d divergences)",
			len(strided.Divergences), len(exhaustive.Divergences))
	}
	witnessed := make(map[uint64]bool)
	for _, d := range exhaustive.Divergences {
		witnessed[d.KillInstruction] = true
	}
	for _, d := range strided.Divergences {
		if !witnessed[d.KillInstruction] {
			t.Errorf("strided witness at instruction %d (cycle %d) absent from the exhaustive campaign",
				d.KillInstruction, d.KillCycle)
		}
	}
}
