package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
)

// runSuperWindows drives the superblock executor in windows of the given
// budget until halt or fault, collecting the per-instruction cost stream —
// the Run counterpart of runBatched.
func runSuperWindows(t *testing.T, c *CPU, budget uint64) (uint64, []Cost, error) {
	t.Helper()
	var (
		cycles uint64
		costs  []Cost
	)
	for i := 0; !c.Halted; i++ {
		if i > 1_000_000 {
			t.Fatal("runaway superblock program")
		}
		res, err := c.Run(budget, &costs)
		cycles += res.Cycles
		if err != nil {
			return cycles, costs, err
		}
	}
	return cycles, costs, nil
}

// TestRunSuperMatchesStepAndBatch is the three-level differential for the
// superblock executor: every program runs to halt through the reference
// interpreter, RunUntil, and Run at several window sizes. Cycle totals, per-instruction cost streams, and all
// architectural and statistical state must be identical across all three.
func TestRunSuperMatchesStepAndBatch(t *testing.T) {
	budgets := []uint64{1, 7, 64, 1 << 62}
	for name, src := range diffPrograms {
		for _, budget := range budgets {
			t.Run(name, func(t *testing.T) {
				ref, refM := device(t, src)
				bat, batM := device(t, src)
				sup, supM := device(t, src)

				refCycles, refCosts, refErr := stepRef(t, ref)
				batCycles, batCosts, batErr := runBatched(t, bat, budget)
				supCycles, supCosts, supErr := runSuperWindows(t, sup, budget)
				if refErr != nil || batErr != nil || supErr != nil {
					t.Fatalf("unexpected faults: ref %v bat %v sup %v", refErr, batErr, supErr)
				}
				if refCycles != batCycles || refCycles != supCycles {
					t.Errorf("budget %d: cycles diverge: ref %d bat %d sup %d",
						budget, refCycles, batCycles, supCycles)
				}
				if !reflect.DeepEqual(refCosts, supCosts) {
					t.Errorf("budget %d: cost streams diverge: ref %d entries sup %d entries",
						budget, len(refCosts), len(supCosts))
				}
				if !reflect.DeepEqual(refCosts, batCosts) {
					t.Errorf("budget %d: cost streams diverge: ref %d entries bat %d entries",
						budget, len(refCosts), len(batCosts))
				}
				assertSameState(t, ref, bat, refM, batM)
				assertSameState(t, ref, sup, refM, supM)
			})
		}
	}

	// Window by window, with costs collected: Run and RunUntil must agree
	// on every window's result, cost records and state, with and without
	// a memo table and a store hook, at every budget up to a few blocks'
	// worst-case cycles (so each block meets the budget edge at every
	// offset) and at an unbounded one.
	var windowBudgets []uint64
	for b := uint64(1); b <= 32; b++ {
		windowBudgets = append(windowBudgets, b)
	}
	windowBudgets = append(windowBudgets, 64, 1<<62)
	for name, src := range diffPrograms {
		for _, memo := range []bool{false, true} {
			for _, hook := range []bool{false, true} {
				t.Run(fmt.Sprintf("lockstep/%s/memo=%v/hook=%v", name, memo, hook), func(t *testing.T) {
					prepare := func() (*CPU, *mem.Memory) {
						c, m := device(t, src)
						if memo {
							c.Memo = NewMemoTable()
						}
						if hook {
							c.BeforeStore = func(uint32, int) {}
						}
						return c, m
					}
					ref, refM := prepare()
					if _, _, err := stepRef(t, ref); err != nil {
						t.Fatal(err)
					}
					for _, budget := range windowBudgets {
						sup, supM := prepare()
						bat, batM := prepare()
						lockstepWindows(t, sup, bat, budget, 1_000_000)
						if !sup.Halted {
							t.Fatalf("budget %d: program did not halt", budget)
						}
						assertSameState(t, ref, sup, refM, supM)
						if !memEqual(supM, batM) {
							t.Fatalf("budget %d: memory diverges Run vs RunUntil", budget)
						}
					}
				})
			}
		}
	}
}

// lockstepWindows drives sup through Run and bat through RunUntil in
// windows of the same budget, collecting costs, and fails at the first
// window whose BatchResult, fault, cost records, registers, flags, halt and
// skim state or Stats differ. A StopStore window is followed by a Step on
// both, as the runtimes do. It returns at halt or fault, or after
// maxWindows windows.
func lockstepWindows(t *testing.T, sup, bat *CPU, budget uint64, maxWindows int) {
	t.Helper()
	var supCosts, batCosts []Cost
	for w := 0; w < maxWindows && !sup.Halted; w++ {
		supCosts, batCosts = supCosts[:0], batCosts[:0]
		supRes, supErr := sup.Run(budget, &supCosts)
		batRes, batErr := bat.RunUntil(budget, &batCosts)
		if supRes != batRes {
			t.Fatalf("budget %d window %d: Run %+v, RunUntil %+v", budget, w, supRes, batRes)
		}
		if (supErr == nil) != (batErr == nil) || supErr != nil && supErr.Error() != batErr.Error() {
			t.Fatalf("budget %d window %d: faults diverge: Run %v, RunUntil %v", budget, w, supErr, batErr)
		}
		if len(supCosts) != len(batCosts) {
			t.Fatalf("budget %d window %d: Run recorded %d costs, RunUntil %d", budget, w, len(supCosts), len(batCosts))
		}
		for i := range supCosts {
			if supCosts[i] != batCosts[i] {
				t.Fatalf("budget %d window %d: cost %d is %+v from Run, %+v from RunUntil",
					budget, w, i, supCosts[i], batCosts[i])
			}
		}
		if sup.Regs != bat.Regs || sup.N != bat.N || sup.Z != bat.Z || sup.C != bat.C || sup.V != bat.V ||
			sup.Halted != bat.Halted || sup.SkimArmed != bat.SkimArmed || sup.SkimTarget != bat.SkimTarget {
			t.Fatalf("budget %d window %d: architectural state diverges", budget, w)
		}
		if sup.Stats != bat.Stats {
			t.Fatalf("budget %d window %d: stats diverge:\nRun      %+v\nRunUntil %+v", budget, w, sup.Stats, bat.Stats)
		}
		if supErr != nil {
			return
		}
		if supRes.Reason == StopStore {
			supCost, supErr := sup.Step()
			batCost, batErr := bat.Step()
			if supCost != batCost || (supErr == nil) != (batErr == nil) {
				t.Fatalf("budget %d window %d: store steps diverge", budget, w)
			}
			if supErr != nil {
				return
			}
		}
	}
}

// TestRunSuperStoreHook pins the StopStore gate: with a BeforeStore hook
// installed Run must never execute an NV-data store inline — it runs
// storing blocks slot by slot and stops ahead of the store so the caller
// routes it through Step, exactly like RunUntil.
func TestRunSuperStoreHook(t *testing.T) {
	src := diffPrograms["mixed-loop"]
	type storeEvt struct {
		addr uint32
		size int
	}

	ref, refM := device(t, src)
	sup, supM := device(t, src)
	var refEvts, supEvts []storeEvt
	ref.BeforeStore = func(addr uint32, size int) {
		refEvts = append(refEvts, storeEvt{addr, size})
	}
	sup.BeforeStore = func(addr uint32, size int) {
		supEvts = append(supEvts, storeEvt{addr, size})
	}

	if _, _, err := stepRef(t, ref); err != nil {
		t.Fatal(err)
	}
	for i := 0; !sup.Halted; i++ {
		if i > 1_000_000 {
			t.Fatal("runaway superblock program")
		}
		res, err := sup.Run(1<<62, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason == StopStore {
			if _, err := sup.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	if len(refEvts) == 0 {
		t.Fatal("test program never stored to NV data")
	}
	if !reflect.DeepEqual(refEvts, supEvts) {
		t.Errorf("hook sequences diverge: ref %d events, sup %d events", len(refEvts), len(supEvts))
	}
	assertSameState(t, ref, sup, refM, supM)
}

// TestRunSuperFaultParity checks fault identity against the reference for
// both single-slot faults (undecodable slot, fall-off-end) and faults raised
// inside a fused superblock body, where the partial-fault exit must account
// the executed prefix exactly as single slots would. Every slot is marked
// amenable so the amenable tally is checked too, and each program runs
// both with and without a cost log, which gates store blocks off the fused
// path.
func TestRunSuperFaultParity(t *testing.T) {
	progs := map[string]string{
		"unmapped-load": `
			MOVI R0, #0
			MOVTI R0, #0x4000
			NOP
			LDR R1, [R0, #0]
			HALT
		`,
		"fall-off-end": `
			MOVI R0, #1
			NOP
		`,
		// The faulting store sits mid-superblock behind translatable
		// instructions, forcing the partial-fault exit path.
		"mid-block-store-fault": `
			MOVI R0, #0
			MOVTI R0, #0x4000
			MOVI R1, #7
			ADD R2, R1, R1
			STR R2, [R0, #8]
			SUBIS R1, R1, #1
			HALT
		`,
		// A self-looping block whose load walks 4 KB per pass off the end
		// of SRAM: four passes complete inside one dispatch and the fifth
		// faults mid-body, so the completed runs and the partial prefix
		// are counted at the same exit.
		"self-loop-later-pass-fault": `
			MOVI R0, #0
			MOVTI R0, #0x2000
			MOVI R3, #0x1000
		loop:
			ADD R2, R2, R3
			LDR R1, [R0, #0]
			ADD R0, R0, R3
			B loop
		`,
	}
	var marks []uint32
	for pc := uint32(mem.CodeBase); pc < mem.CodeBase+16*isa.InstBytes; pc += isa.InstBytes {
		marks = append(marks, pc)
	}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			for _, logCosts := range []bool{false, true} {
				t.Run(fmt.Sprintf("costs=%v", logCosts), func(t *testing.T) {
					ref, refM := device(t, src)
					sup, supM := device(t, src)
					ref.SetAmenablePCs(marks)
					sup.SetAmenablePCs(marks)
					_, _, refErr := stepRef(t, ref)
					var costs *[]Cost
					if logCosts {
						costs = new([]Cost)
					}
					res, supErr := sup.Run(1<<62, costs)
					if refErr == nil || supErr == nil || res.Reason != StopFault {
						t.Fatalf("expected faults, got ref %v sup %v (reason %v)", refErr, supErr, res.Reason)
					}
					if refErr.Error() != supErr.Error() {
						t.Errorf("fault messages diverge:\nref %v\nsup %v", refErr, supErr)
					}
					if res.Instructions != ref.Stats.Instructions {
						t.Errorf("window instructions = %d, reference retired %d", res.Instructions, ref.Stats.Instructions)
					}
					assertSameState(t, ref, sup, refM, supM)
				})
			}
		})
	}
}

// TestRunSuperAmenableCounting pins AmenableOps parity through superblock
// aggregate accounting, including marks on the faulting instruction of a
// partial block (the reference tallies the mark before executing).
func TestRunSuperAmenableCounting(t *testing.T) {
	src := diffPrograms["mixed-loop"]
	marks := []uint32{mem.CodeBase + 3*isa.InstBytes, mem.CodeBase + 5*isa.InstBytes}
	ref, refM := device(t, src)
	sup, supM := device(t, src)
	ref.SetAmenablePCs(marks)
	sup.SetAmenablePCs(marks)
	if _, _, err := stepRef(t, ref); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runSuperWindows(t, sup, 13); err != nil {
		t.Fatal(err)
	}
	if ref.Stats.AmenableOps == 0 {
		t.Fatal("test program never hit an amenable PC")
	}
	assertSameState(t, ref, sup, refM, supM)
}

// TestRunSuperMemoParity runs a memoization-heavy multiply loop under the
// reference and the superblock backend with memo tables installed: the
// fast-hit cycle discount (sbAdj) must reproduce the interpreter's
// data-dependent multiply costs exactly.
func TestRunSuperMemoParity(t *testing.T) {
	src := `
		MOVI R1, #300
		MOVI R2, #17
		MOVI R3, #23
	loop:
		MUL R4, R2, R3
		MUL_ASP8 R4, R2, #1
		ADD R5, R5, R4
		SUBIS R1, R1, #1
		BNE loop
		HALT
	`
	ref, refM := device(t, src)
	sup, supM := device(t, src)
	ref.Memo = NewMemoTable()
	sup.Memo = NewMemoTable()

	refCycles, _, refErr := stepRef(t, ref)
	supCycles, supErr := func() (uint64, error) {
		var cycles uint64
		for !sup.Halted {
			res, err := sup.Run(1<<62, nil)
			cycles += res.Cycles
			if err != nil {
				return cycles, err
			}
		}
		return cycles, nil
	}()
	if refErr != nil || supErr != nil {
		t.Fatalf("unexpected faults: ref %v sup %v", refErr, supErr)
	}
	if refCycles != supCycles {
		t.Errorf("cycles diverge with memoization: ref %d sup %d", refCycles, supCycles)
	}
	assertSameState(t, ref, sup, refM, supM)
}

// TestTranslationBoundariesMatchCFG is the satellite-1 contract: every fused
// superblock must lie inside exactly one wncheck CFG block, starting at the
// block's first instruction, and a block fused through its terminator must
// end exactly where the CFG block ends. The CFG comes from the same public
// accessor the translator consumes, so a drift in either direction fails.
func TestTranslationBoundariesMatchCFG(t *testing.T) {
	for name, src := range diffPrograms {
		t.Run(name, func(t *testing.T) {
			c, m := device(t, src)
			extents, err := c.TranslationBlocks()
			if err != nil {
				t.Fatal(err)
			}
			if len(extents) == 0 {
				t.Fatal("no superblocks fused")
			}
			g := wncheck.ImageCFG(m.ProgramImage())
			blocks := g.Blocks()
			fullFusions := 0
			for _, ext := range extents {
				idx := blockAt(blocks, ext[0])
				if idx < 0 {
					t.Fatalf("superblock start %#08x is not inside any CFG block", ext[0])
				}
				b := blocks[idx]
				if ext[0] != b.Start {
					t.Errorf("superblock starts at %#08x, CFG block at %#08x", ext[0], b.Start)
				}
				if ext[1] > b.End {
					t.Errorf("superblock [%#08x,%#08x) crosses CFG block end %#08x",
						ext[0], ext[1], b.End)
				}
				// A block counts as fully fused when it reaches the CFG
				// block's end, or stops exactly one instruction short of it
				// (a non-inlinable terminator: HALT or SKM runs as a single
				// slot by design).
				if ext[1] == b.End || ext[1]+isa.InstBytes == b.End {
					fullFusions++
				}
			}
			if fullFusions == 0 {
				t.Error("no superblock spans a full CFG block")
			}
		})
	}
}

// TestRunBudgetOvershootAllStopReasons is the satellite-2 regression: for
// every StopReason — budget, halt, store-hook, skim, and fault — and for
// both Run and RunUntil, a window never exceeds budget + MaxInstrCycles - 1
// cycles.
// The programs are chosen so every reason is actually observed, and the test
// fails if one never occurs.
func TestRunBudgetOvershootAllStopReasons(t *testing.T) {
	progs := []string{
		diffPrograms["mixed-loop"], // stores (StopStore with hook), budget windows, halt
		diffPrograms["skim"],       // StopSkim
		`
			MOVI R0, #0
			MOVTI R0, #0x4000
			MOVI R1, #50
		spin:
			ADD R2, R2, R1
			MUL R3, R2, R1
			SUBIS R1, R1, #1
			BNE spin
			LDR R4, [R0, #0]
			HALT
		`, // StopFault after a multiply-heavy run (worst-case overshoot)
	}
	engines := map[string]func(*CPU, uint64, *[]Cost) (BatchResult, error){
		"Run":      (*CPU).Run,
		"RunUntil": (*CPU).RunUntil,
	}
	for name, run := range engines {
		seen := map[StopReason]bool{}
		for _, src := range progs {
			for budget := uint64(1); budget <= 40; budget++ {
				c, _ := device(t, src)
				c.BeforeStore = func(uint32, int) {} // arm the StopStore path
				for i := 0; !c.Halted; i++ {
					if i > 100_000 {
						t.Fatal("runaway program")
					}
					res, err := run(c, budget, nil)
					seen[res.Reason] = true
					if res.Cycles > budget+MaxInstrCycles-1 {
						t.Fatalf("%s budget %d: window ran %d cycles (reason %d), want <= %d",
							name, budget, res.Cycles, res.Reason, budget+MaxInstrCycles-1)
					}
					if err != nil {
						break // fault windows end the run
					}
					if res.Reason == StopStore {
						if _, err := c.Step(); err != nil {
							break
						}
					}
				}
			}
		}
		for _, want := range []StopReason{StopBudget, StopHalt, StopStore, StopSkim, StopFault} {
			if !seen[want] {
				t.Errorf("%s: StopReason %d never observed", name, want)
			}
		}
	}
}

// fuzzSeedWords returns the valid encodable words derived from the
// FuzzEncodeDecode seed instructions — the same operand-class coverage the
// fuzz corpus starts from.
func fuzzSeedWords(t *testing.T) []uint32 {
	t.Helper()
	seeds := []isa.Instruction{
		{Op: isa.OpNop},
		{Op: isa.OpHalt},
		{Op: isa.OpMovI, Rd: 3, Imm: 0xFFFF},
		{Op: isa.OpMovTI, Rd: 3, Imm: 0x1000},
		{Op: isa.OpMov, Rd: 1, Rm: 2},
		{Op: isa.OpAdd, Rd: 1, Rn: 2, Rm: 3},
		{Op: isa.OpAddI, Rd: 1, Rn: 2, Imm: -(1 << 15)},
		{Op: isa.OpSubIS, Rd: 4, Rn: 4, Imm: 1},
		{Op: isa.OpCmpI, Rn: 5, Imm: 1<<15 - 1},
		{Op: isa.OpLdr, Rd: 6, Rn: 7, Imm: 64},
		{Op: isa.OpStrbX, Rd: 6, Rn: 7, Rm: 8},
		{Op: isa.OpB, Imm: -8},
		{Op: isa.OpBl, Imm: 400},
		{Op: isa.OpBx, Rm: 14},
		{Op: isa.OpSkm, Imm: 0x120},
		{Op: isa.OpMulASP8, Rd: 9, Rm: 10, Imm: 3},
		{Op: isa.OpAddASV16, Rd: 11, Rm: 12},
		{Op: isa.OpSubASV4, Rd: 0, Rm: 1},
	}
	var words []uint32
	for _, in := range seeds {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("seed %v does not encode: %v", in, err)
		}
		words = append(words, uint32(w))
	}
	return words
}

// randomProgram synthesizes a program of decodable words: a mix of fuzz-seed
// words with randomized operand fields and raw random words filtered through
// isa.Decode, HALT-terminated. Deterministic per rng.
func randomProgram(rng *rand.Rand, seedWords []uint32) []byte {
	n := 16 + rng.Intn(48)
	image := make([]byte, 0, (n+1)*isa.InstBytes)
	emit := func(w uint32) {
		image = append(image, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			// A fully random decodable word (rejection-sampled).
			for tries := 0; tries < 64; tries++ {
				w := rng.Uint32()
				if _, err := isa.Decode(isa.Word(w)); err == nil {
					emit(w)
					break
				}
				if tries == 63 {
					emit(seedWords[rng.Intn(len(seedWords))])
				}
			}
			continue
		}
		// A seed word with re-randomized register fields, re-checked so the
		// mutation stays decodable; fall back to the original seed word.
		base := seedWords[rng.Intn(len(seedWords))]
		in, err := isa.Decode(isa.Word(base))
		if err != nil {
			continue
		}
		in.Rd = isa.Reg(rng.Intn(13)) // keep off SP/LR/PC for denser execution
		if in.Op.HasRm() {
			in.Rm = isa.Reg(rng.Intn(13))
		}
		if w, err := isa.Encode(in); err == nil {
			emit(uint32(w))
		} else {
			emit(base)
		}
	}
	// Terminate: random programs rarely halt on their own.
	if w, err := isa.Encode(isa.Instruction{Op: isa.OpHalt}); err == nil {
		emit(uint32(w))
	}
	return image
}

// TestFuzzCorpusDifferential is the satellite-3 fuzz-style differential:
// deterministic random programs built from the FuzzEncodeDecode seed classes
// run under the reference interpreter, Step and the batched interpreter at
// budget=1 (one instruction per window — every boundary observed), and the
// superblock executor, diffing registers, flags, skim state, and NV memory
// at every instruction boundary, and full state (including Stats) at the
// end. A last phase runs Run and RunUntil in lockstep windows with costs
// collected, with and without a memo table and a store hook.
func TestFuzzCorpusDifferential(t *testing.T) {
	const (
		programs      = 40
		maxBoundaries = 3000
	)
	seedWords := fuzzSeedWords(t)
	rng := rand.New(rand.NewSource(0x574E5F50523821)) // deterministic corpus

	for pi := 0; pi < programs; pi++ {
		image := randomProgram(rng, seedWords)
		newDev := func() (*CPU, *mem.Memory) {
			m := mem.New(mem.DefaultConfig())
			if err := m.LoadProgram(image); err != nil {
				t.Fatal(err)
			}
			return New(m), m
		}
		ref, refM := newDev()
		bat, batM := newDev()
		stp, stpM := newDev()

		// Phase 1: boundary-lockstep reference vs batched interpreter and
		// Step.
		var refErr error
		boundaries := 0
		for ; boundaries < maxBoundaries && !ref.Halted; boundaries++ {
			_, refErr = ref.refStep()
			_, batErr := bat.RunUntil(1, nil)
			_, stpErr := stp.Step()
			for _, e := range []struct {
				name string
				c    *CPU
				err  error
			}{{"bat", bat, batErr}, {"step", stp, stpErr}} {
				if (refErr == nil) != (e.err == nil) {
					t.Fatalf("program %d boundary %d: fault asymmetry ref %v %s %v",
						pi, boundaries, refErr, e.name, e.err)
				}
				if refErr != nil && refErr.Error() != e.err.Error() {
					t.Fatalf("program %d boundary %d: fault messages diverge:\nref %v\n%s %v",
						pi, boundaries, refErr, e.name, e.err)
				}
				if ref.Regs != e.c.Regs || ref.Halted != e.c.Halted ||
					ref.SkimArmed != e.c.SkimArmed || ref.SkimTarget != e.c.SkimTarget ||
					ref.N != e.c.N || ref.Z != e.c.Z || ref.C != e.c.C || ref.V != e.c.V {
					t.Fatalf("program %d: ref vs %s state diverges at boundary %d", pi, e.name, boundaries)
				}
			}
			if refErr != nil {
				break
			}
		}
		if !memEqual(refM, batM) || !memEqual(refM, stpM) {
			t.Fatalf("program %d: memory diverges ref vs bat/step", pi)
		}
		if !reflect.DeepEqual(ref.Stats, stp.Stats) {
			t.Fatalf("program %d: stats diverge:\nref  %+v\nstep %+v", pi, ref.Stats, stp.Stats)
		}

		// Phase 2: superblock backend vs the reference outcome. When the
		// reference halted or faulted the program is finite, so the
		// superblock run must reach the identical end state; when the
		// boundary cap hit, align by the exact cycle total (budgets stop at
		// instruction boundaries, so equal cycle sums mean equal positions).
		sup, supM := newDev()
		var supErr error
		if refErr != nil || ref.Halted {
			for i := 0; !sup.Halted && supErr == nil; i++ {
				if i > maxBoundaries {
					t.Fatalf("program %d: superblock run does not terminate", pi)
				}
				_, supErr = sup.Run(1<<62, nil)
			}
			if (refErr == nil) != (supErr == nil) {
				t.Fatalf("program %d: fault asymmetry ref %v sup %v", pi, refErr, supErr)
			}
			if refErr != nil && refErr.Error() != supErr.Error() {
				t.Fatalf("program %d: fault messages diverge:\nref %v\nsup %v", pi, refErr, supErr)
			}
		} else {
			target := ref.Stats.Cycles
			for sup.Stats.Cycles < target && !sup.Halted {
				if _, err := sup.Run(target-sup.Stats.Cycles, nil); err != nil {
					t.Fatalf("program %d: superblock faulted during aligned run: %v", pi, err)
				}
			}
		}
		if ref.Regs != sup.Regs || ref.Halted != sup.Halted ||
			ref.SkimArmed != sup.SkimArmed || ref.SkimTarget != sup.SkimTarget ||
			ref.N != sup.N || ref.Z != sup.Z || ref.C != sup.C || ref.V != sup.V {
			t.Fatalf("program %d: final state diverges ref vs sup", pi)
		}
		if !reflect.DeepEqual(ref.Stats, sup.Stats) {
			t.Fatalf("program %d: stats diverge:\nref %+v\nsup %+v", pi, ref.Stats, sup.Stats)
		}
		if !memEqual(refM, supM) {
			t.Fatalf("program %d: memory diverges ref vs sup", pi)
		}

		// Phase 3: Run against RunUntil window by window with costs
		// collected, with and without a memo table and a store hook.
		for _, budget := range []uint64{1, 23, 500} {
			for _, memo := range []bool{false, true} {
				for _, hook := range []bool{false, true} {
					sup, supM := newDev()
					bat, batM := newDev()
					for _, c := range []*CPU{sup, bat} {
						if memo {
							c.Memo = NewMemoTable()
						}
						if hook {
							c.BeforeStore = func(uint32, int) {}
						}
					}
					lockstepWindows(t, sup, bat, budget, maxBoundaries)
					if !memEqual(supM, batM) {
						t.Fatalf("program %d budget %d memo %v hook %v: memory diverges Run vs RunUntil",
							pi, budget, memo, hook)
					}
				}
			}
		}
	}
}

// TestForkSharesTranslation pins the lockstep fork contract: a forked CPU
// reuses the parent's decode cache and translation (pointer-equal), copies
// architectural state, drops the store hook, and runs independently to a
// state identical to an unforked continuation.
func TestForkSharesTranslation(t *testing.T) {
	src := diffPrograms["mixed-loop"]
	c, m := device(t, src)
	c.BeforeStore = func(uint32, int) {}
	// Run partway in, then fork.
	if _, err := c.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	c.BeforeStore = nil
	m2 := m.Clone()
	f := c.Fork(m2)
	if f.trans != c.trans || f.decodeCache == nil {
		t.Fatal("fork must share the parent's translation and decode cache")
	}
	if f.BeforeStore != nil {
		t.Fatal("fork must not inherit the BeforeStore hook")
	}
	if f.Regs != c.Regs || f.Stats != c.Stats {
		t.Fatal("fork must copy architectural state and stats")
	}
	// Both continue to halt; they must stay identical.
	for !c.Halted {
		if _, err := c.Run(1<<62, nil); err != nil {
			t.Fatal(err)
		}
	}
	for !f.Halted {
		if _, err := f.Run(1<<62, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.Regs != f.Regs || !memEqual(m, m2) {
		t.Fatal("forked continuation diverged from the parent's")
	}
}

// TestEveryOpcodeHasClosure pins the per-slot dispatch's coverage: every
// valid opcode but HALT and SKM (which Run handles inline) gets exactly
// one closure, a body closure for straight-line instructions or a
// terminator for branches. An opcode with neither would fault as
// unimplemented.
func TestEveryOpcodeHasClosure(t *testing.T) {
	for op := isa.Opcode(0); op.Valid(); op++ {
		in := isa.Instruction{Op: op, Rd: 1, Rn: 2, Rm: 3}
		body := buildBodyFn(in) != nil
		term, _ := buildTerm(in, mem.CodeBase)
		switch {
		case op == isa.OpHalt || op == isa.OpSkm:
			if body || term != nil {
				t.Errorf("%s: handled inline, but has a closure", op.Name())
			}
		case op.IsBranch():
			if body || term == nil {
				t.Errorf("%s: branch needs a terminator closure and no body closure (body=%v term=%v)", op.Name(), body, term != nil)
			}
		default:
			if !body || term != nil {
				t.Errorf("%s: needs a body closure and no terminator closure (body=%v term=%v)", op.Name(), body, term != nil)
			}
		}
	}
}

// memEqual reports whether two memories hold identical bytes in every
// region (code, data and SRAM).
func memEqual(a, b *mem.Memory) bool {
	cfg := a.Config()
	return a.EqualWithin(b, mem.DirtyExtent{DataHi: uint32(cfg.DataBytes), SRAMHi: uint32(cfg.SRAMBytes), Code: true})
}

// blockAt returns the index of the block containing the instruction at
// addr, or -1 if no block does.
func blockAt(blocks []wncheck.CFGBlock, addr uint32) int {
	for i, b := range blocks {
		if addr >= b.Start && addr < b.End {
			return i
		}
	}
	return -1
}
