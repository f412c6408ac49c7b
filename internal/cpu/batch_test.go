package cpu

import (
	"reflect"
	"testing"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// diffPrograms exercises every path of Run's loop and the reference
// execute: ALU ops, flags, all load/store widths (immediate and register
// offset), multiplies, SWAR vector ops, branches, calls, PC operands, and
// SKM.
var diffPrograms = map[string]string{
	"mixed-loop": `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #200
	loop:
		LDRH R2, [R0, #0]
		LDRB R3, [R0, #2]
		MUL_ASP8 R2, R3, #1
		ADD R4, R4, R2
		STR R4, [R0, #4]
		SUBIS R1, R1, #1
		BNE loop
		HALT
	`,
	"widths-and-offsets": `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #0x1234
		STRH R1, [R0, #0]
		STRB R1, [R0, #3]
		MOVI R2, #8
		STRX R1, [R0, R2]
		LDRX R3, [R0, R2]
		LDRHX R4, [R0, R2]
		LDRBX R5, [R0, R2]
		MUL R6, R1, R3
		ADD_ASV8 R6, R3
		SUB_ASV4 R6, R4
		HALT
	`,
	"calls-and-flags": `
		MOVI R0, #5
		BL double
		CMPI R1, #10
		BEQ ok
		MOVI R9, #1
	ok:
		HALT
	double:
		LSL R1, R0, #1
		BX LR
	`,
	// A store-free multiply loop: with costs wanted and no memo table, Run
	// fuses it, and with a memo table its multiplies hit and miss.
	"mul-loop": `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #60
		MOVI R5, #3
	loop:
		LDRH R2, [R0, #0]
		MUL R3, R2, R5
		MUL_ASP4 R3, R2, #1
		MUL R6, R1, R5
		ADD R4, R4, R3
		ADD R4, R4, R6
		SUBIS R1, R1, #1
		BNE loop
		STR R4, [R0, #8]
		HALT
	`,
	// PC as an operand: a slot closure reads Regs[PC] as its own address,
	// and a write to PC is overwritten by the next PC. Blocks stop fusing
	// at these instructions, so Run runs them one slot at a time.
	"pc-operands": `
		MOVI R0, #0
		MOVTI R0, #4096
		MOV R1, PC
		ADD R2, PC, R1
		ADDI R3, PC, #8
		SUB R4, R2, PC
		STR R4, [R0, #0]
		ADD R5, R3, R1
		STR R5, [R0, #4]
		CMP PC, R1
		BHS above
		MOVI R9, #1
	above:
		CMPI PC, #0
		BEQ zero
		MOVI PC, #0
		CMP R1, PC
		BLO below
		MOVI R9, #2
	below:
		MOVI R6, #3
	loop:
		SUBIS R6, R6, #1
		BNE loop
	zero:
		HALT
	`,
	"skim": `
		MOVI R0, #3
		SKM done
	spin:
		SUBIS R0, R0, #1
		BNE spin
	done:
		HALT
	`,
}

// newDiffPair assembles src onto two independent, identically prepared
// devices.
func newDiffPair(t *testing.T, src string) (ref, bat *CPU, refM, batM *mem.Memory) {
	t.Helper()
	ref, refM = device(t, src)
	bat, batM = device(t, src)
	return ref, bat, refM, batM
}

// stepRef runs the reference interpreter until halt or fault, returning the
// total cycles, the per-instruction costs, and any fault.
func stepRef(t *testing.T, c *CPU) (uint64, []Cost, error) {
	t.Helper()
	return stepAll(t, c, c.refStep)
}

// stepProd is stepRef through the production Step.
func stepProd(t *testing.T, c *CPU) (uint64, []Cost, error) {
	t.Helper()
	return stepAll(t, c, c.Step)
}

// stepAll calls step until c halts or faults.
func stepAll(t *testing.T, c *CPU, step func() (Cost, error)) (uint64, []Cost, error) {
	t.Helper()
	var (
		cycles uint64
		costs  []Cost
	)
	for i := 0; !c.Halted; i++ {
		if i > 1_000_000 {
			t.Fatal("runaway stepped program")
		}
		cost, err := step()
		if err != nil {
			return cycles, costs, err
		}
		cycles += uint64(cost.Cycles)
		costs = append(costs, cost)
	}
	return cycles, costs, nil
}

// runBatched drives RunUntil in windows of the given budget until halt or
// fault, collecting the same per-instruction cost stream.
func runBatched(t *testing.T, c *CPU, budget uint64) (uint64, []Cost, error) {
	t.Helper()
	var (
		cycles uint64
		costs  []Cost
	)
	for i := 0; !c.Halted; i++ {
		if i > 1_000_000 {
			t.Fatal("runaway batched program")
		}
		res, err := c.RunUntil(budget, &costs)
		cycles += res.Cycles
		if err != nil {
			return cycles, costs, err
		}
	}
	return cycles, costs, nil
}

// assertSameState compares every piece of architectural and statistical
// state the two execution paths must agree on.
func assertSameState(t *testing.T, ref, bat *CPU, refM, batM *mem.Memory) {
	t.Helper()
	if ref.Regs != bat.Regs {
		t.Errorf("registers diverge:\nref %v\nbat %v", ref.Regs, bat.Regs)
	}
	if ref.N != bat.N || ref.Z != bat.Z || ref.C != bat.C || ref.V != bat.V {
		t.Errorf("flags diverge: ref NZCV=%v%v%v%v bat NZCV=%v%v%v%v",
			ref.N, ref.Z, ref.C, ref.V, bat.N, bat.Z, bat.C, bat.V)
	}
	if ref.Halted != bat.Halted || ref.SkimArmed != bat.SkimArmed || ref.SkimTarget != bat.SkimTarget {
		t.Errorf("halt/skim state diverges: ref (%v %v %#x) bat (%v %v %#x)",
			ref.Halted, ref.SkimArmed, ref.SkimTarget, bat.Halted, bat.SkimArmed, bat.SkimTarget)
	}
	if !reflect.DeepEqual(ref.Stats, bat.Stats) {
		t.Errorf("stats diverge:\nref %+v\nbat %+v", ref.Stats, bat.Stats)
	}
	if refM.NVWrites != batM.NVWrites {
		t.Errorf("NV writes diverge: ref %d bat %d", refM.NVWrites, batM.NVWrites)
	}
	n := refM.Config().DataBytes
	refData := make([]byte, n)
	batData := make([]byte, n)
	if err := refM.ReadData(mem.DataBase, refData); err != nil {
		t.Fatal(err)
	}
	if err := batM.ReadData(mem.DataBase, batData); err != nil {
		t.Fatal(err)
	}
	for i := range refData {
		if refData[i] != batData[i] {
			t.Errorf("data memory diverges at %#08x: ref %#02x bat %#02x",
				mem.DataBase+uint32(i), refData[i], batData[i])
			break
		}
	}
}

// TestRunUntilMatchesStep is the instruction-level differential: every
// program runs to halt through the reference interpreter, through Step, and
// through RunUntil at several window sizes (including budget=1, which
// forces a window per instruction), and all architectural state,
// statistics, cycle counts, and per-instruction cost streams must be
// identical.
func TestRunUntilMatchesStep(t *testing.T) {
	budgets := []uint64{1, 7, 64, 1 << 62}
	for name, src := range diffPrograms {
		for _, budget := range budgets {
			t.Run(name, func(t *testing.T) {
				ref, bat, refM, batM := newDiffPair(t, src)
				stp, stpM := device(t, src)
				refCycles, refCosts, refErr := stepRef(t, ref)
				batCycles, batCosts, batErr := runBatched(t, bat, budget)
				stpCycles, stpCosts, stpErr := stepProd(t, stp)
				if refErr != nil || batErr != nil || stpErr != nil {
					t.Fatalf("unexpected faults: ref %v bat %v step %v", refErr, batErr, stpErr)
				}
				if refCycles != batCycles || refCycles != stpCycles {
					t.Errorf("budget %d: cycles diverge: ref %d bat %d step %d", budget, refCycles, batCycles, stpCycles)
				}
				if !reflect.DeepEqual(refCosts, batCosts) {
					t.Errorf("budget %d: cost streams diverge (%d vs %d entries)",
						budget, len(refCosts), len(batCosts))
				}
				if !reflect.DeepEqual(refCosts, stpCosts) {
					t.Errorf("cost streams diverge: ref %d entries step %d", len(refCosts), len(stpCosts))
				}
				assertSameState(t, ref, bat, refM, batM)
				assertSameState(t, ref, stp, refM, stpM)
			})
		}
	}
}

// TestRunUntilAmenableCounting pins AmenableOps parity between the paths,
// including across RunUntil window boundaries.
func TestRunUntilAmenableCounting(t *testing.T) {
	src := diffPrograms["mixed-loop"]
	marks := []uint32{mem.CodeBase + 3*isa.InstBytes, mem.CodeBase + 5*isa.InstBytes}
	ref, bat, refM, batM := newDiffPair(t, src)
	ref.SetAmenablePCs(marks)
	bat.SetAmenablePCs(marks)
	if _, _, err := stepRef(t, ref); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runBatched(t, bat, 13); err != nil {
		t.Fatal(err)
	}
	if ref.Stats.AmenableOps == 0 {
		t.Fatal("test program never hit an amenable PC")
	}
	assertSameState(t, ref, bat, refM, batM)
}

// TestRunUntilStoreHook verifies the StopStore contract: with a BeforeStore
// hook installed, RunUntil must stop before every NV-data store so the
// caller can route it through Step, and the hook must observe the same
// sequence of (addr, size) pairs as under the reference interpreter.
func TestRunUntilStoreHook(t *testing.T) {
	src := diffPrograms["mixed-loop"]
	type storeEvt struct {
		addr uint32
		size int
	}

	ref, bat, refM, batM := newDiffPair(t, src)
	var refEvts, batEvts []storeEvt
	ref.BeforeStore = func(addr uint32, size int) {
		refEvts = append(refEvts, storeEvt{addr, size})
	}
	bat.BeforeStore = func(addr uint32, size int) {
		batEvts = append(batEvts, storeEvt{addr, size})
	}

	if _, _, err := stepRef(t, ref); err != nil {
		t.Fatal(err)
	}
	for i := 0; !bat.Halted; i++ {
		if i > 1_000_000 {
			t.Fatal("runaway batched program")
		}
		res, err := bat.RunUntil(1<<62, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason == StopStore {
			if _, err := bat.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	if len(refEvts) == 0 {
		t.Fatal("test program never stored to NV data")
	}
	if !reflect.DeepEqual(refEvts, batEvts) {
		t.Errorf("hook sequences diverge: ref %d events, bat %d events", len(refEvts), len(batEvts))
	}
	assertSameState(t, ref, bat, refM, batM)
}

// TestRunUntilFaultParity checks that both paths fault identically: same
// error message, same final state, and the faulting instruction is not
// counted by either path.
func TestRunUntilFaultParity(t *testing.T) {
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
	}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			ref, bat, refM, batM := newDiffPair(t, src)
			_, _, refErr := stepRef(t, ref)
			_, _, batErr := runBatched(t, bat, 1<<62)
			if refErr == nil || batErr == nil {
				t.Fatalf("expected faults, got ref %v bat %v", refErr, batErr)
			}
			if refErr.Error() != batErr.Error() {
				t.Errorf("fault messages diverge:\nref %v\nbat %v", refErr, batErr)
			}
			assertSameState(t, ref, bat, refM, batM)
		})
	}
}

// TestRunUntilBudgetIsFloor pins the window contract batch schedulers rely
// on: RunUntil stops at the first instruction boundary at or past the
// budget, overshooting by strictly less than MaxInstrCycles.
func TestRunUntilBudgetIsFloor(t *testing.T) {
	c, _ := device(t, diffPrograms["mixed-loop"])
	for !c.Halted {
		res, err := c.RunUntil(100, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason == StopBudget && (res.Cycles < 100 || res.Cycles >= 100+MaxInstrCycles) {
			t.Fatalf("budget window returned %d cycles, want [100, %d)", res.Cycles, 100+MaxInstrCycles)
		}
	}
}
