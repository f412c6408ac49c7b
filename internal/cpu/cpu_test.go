package cpu

import (
	"strings"
	"testing"
	"testing/quick"

	"whatsnext/internal/asm"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// device assembles a program into a fresh CPU+memory.
func device(t *testing.T, src string) (*CPU, *mem.Memory) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(p.Image); err != nil {
		t.Fatal(err)
	}
	return New(m), m
}

// runToHalt executes until HALT and returns total cycles.
func runToHalt(t *testing.T, c *CPU) uint64 {
	t.Helper()
	var cycles uint64
	for i := 0; !c.Halted; i++ {
		if i > 1_000_000 {
			t.Fatal("runaway program")
		}
		cost, err := c.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		cycles += uint64(cost.Cycles)
	}
	return cycles
}

func TestALUBasics(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #7
		MOVI R1, #5
		ADD R2, R0, R1    ; 12
		SUB R3, R0, R1    ; 2
		AND R4, R0, R1    ; 5
		ORR R5, R0, R1    ; 7
		EOR R6, R0, R1    ; 2
		LSL R7, R0, #4    ; 112
		LSR R8, R7, #2    ; 28
		MOVI R9, #0
		SUB R9, R9, R0    ; -7
		ASR R10, R9, #1   ; -4 (arithmetic)
		HALT
	`)
	runToHalt(t, c)
	want := map[isa.Reg]uint32{
		isa.R2: 12, isa.R3: 2, isa.R4: 5, isa.R5: 7, isa.R6: 2,
		isa.R7: 112, isa.R8: 28, isa.R9: 0xFFFFFFF9, isa.R10: 0xFFFFFFFC,
	}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("%s = %#x, want %#x", r, c.Regs[r], v)
		}
	}
}

func TestMovTIBuildsConstants(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #48879       ; 0xBEEF
		MOVTI R0, #57005      ; 0xDEAD
		HALT
	`)
	runToHalt(t, c)
	if c.Regs[isa.R0] != 0xDEADBEEF {
		t.Fatalf("R0 = %#x", c.Regs[isa.R0])
	}
}

func TestShiftSaturation(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #1
		MOVI R1, #40
		LSL R2, R0, R1   ; shift >= 32 yields 0
		MOVI R3, #65535
		MOVTI R3, #65535
		LSR R4, R3, R1   ; 0
		ASR R5, R3, R1   ; sign fill: all ones
		HALT
	`)
	runToHalt(t, c)
	if c.Regs[isa.R2] != 0 || c.Regs[isa.R4] != 0 {
		t.Error("logical shifts >= 32 should produce zero")
	}
	if c.Regs[isa.R5] != 0xFFFFFFFF {
		t.Errorf("ASR by >= 32 of a negative should saturate to sign, got %#x", c.Regs[isa.R5])
	}
}

func TestMulSemanticsAndCost(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #1000
		MOVI R1, #3000
		MUL R2, R0, R1
		HALT
	`)
	var mulCycles uint32
	for !c.Halted {
		pc := c.Regs[isa.PC]
		cost, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if pc == 2*isa.InstBytes {
			mulCycles = cost.Cycles
		}
	}
	if c.Regs[isa.R2] != 3_000_000 {
		t.Fatalf("MUL result %d", c.Regs[isa.R2])
	}
	if mulCycles != 16 {
		t.Fatalf("MUL took %d cycles, want 16 (iterative multiplier)", mulCycles)
	}
}

func TestMulASPSemantics(t *testing.T) {
	// Decompose 0xABCD * 77 into two 8-bit anytime stages and check the sum
	// matches the full product.
	c, _ := device(t, `
		MOVI R0, #77
		MOVI R1, #171      ; 0xAB, most significant byte
		MOVI R2, #205      ; 0xCD
		MOV R3, R0
		MUL_ASP8 R3, R1, #1  ; 77*0xAB << 8
		MOV R4, R0
		MUL_ASP8 R4, R2, #0  ; 77*0xCD
		ADD R5, R3, R4
		HALT
	`)
	runToHalt(t, c)
	want := uint32(77) * 0xABCD
	if c.Regs[isa.R5] != want {
		t.Fatalf("staged product %#x, want %#x", c.Regs[isa.R5], want)
	}
}

func TestMulASPCycles(t *testing.T) {
	for _, tc := range []struct {
		mn     string
		cycles uint32
	}{{"MUL_ASP1", 1}, {"MUL_ASP2", 2}, {"MUL_ASP3", 3}, {"MUL_ASP4", 4}, {"MUL_ASP8", 8}} {
		c, _ := device(t, "MOVI R0, #3\nMOVI R1, #5\n"+tc.mn+" R0, R1, #0\nHALT")
		var got uint32
		for !c.Halted {
			pc := c.Regs[isa.PC]
			cost, _ := c.Step()
			if pc == 2*isa.InstBytes {
				got = cost.Cycles
			}
		}
		if got != tc.cycles {
			t.Errorf("%s took %d cycles, want %d", tc.mn, got, tc.cycles)
		}
	}
}

func TestBranchesAndFlags(t *testing.T) {
	// Sum 1..10 with a BNE loop, then verify signed/unsigned conditions.
	c, _ := device(t, `
		MOVI R0, #10
		MOVI R1, #0
	loop:
		ADD R1, R1, R0
		SUBIS R0, R0, #1
		BNE loop

		MOVI R2, #0
		MOVI R3, #0
		SUB R3, R3, R2    ; R3 = 0
		CMPI R3, #-1      ; 0 > -1 signed
		BGT signed_ok
		MOVI R12, #1      ; poison
	signed_ok:
		MOVI R4, #0
		SUBI R4, R4, #1   ; R4 = 0xFFFFFFFF
		CMPI R5, #1       ; 0 < 1 unsigned
		BLO unsigned_ok
		MOVI R12, #2
	unsigned_ok:
		CMP R4, R5        ; 0xFFFFFFFF >= 0 unsigned
		BHS done
		MOVI R12, #3
	done:
		HALT
	`)
	runToHalt(t, c)
	if c.Regs[isa.R1] != 55 {
		t.Errorf("loop sum = %d, want 55", c.Regs[isa.R1])
	}
	if c.Regs[isa.R12] != 0 {
		t.Errorf("condition branch failed, poison %d", c.Regs[isa.R12])
	}
}

func TestTakenBranchCostsExtraCycle(t *testing.T) {
	c, _ := device(t, `
		CMPI R0, #0
		BEQ target
		NOP
	target:
		HALT
	`)
	var beqCost uint32
	for !c.Halted {
		pc := c.Regs[isa.PC]
		cost, _ := c.Step()
		if pc == 1*isa.InstBytes {
			beqCost = cost.Cycles
		}
	}
	if beqCost != 2 {
		t.Fatalf("taken BEQ cost %d cycles, want 2 (pipeline refill)", beqCost)
	}

	c2, _ := device(t, `
		CMPI R0, #1
		BEQ target
		NOP
	target:
		HALT
	`)
	for !c2.Halted {
		pc := c2.Regs[isa.PC]
		cost, _ := c2.Step()
		if pc == 1*isa.InstBytes && cost.Cycles != 1 {
			t.Fatalf("not-taken BEQ cost %d cycles, want 1", cost.Cycles)
		}
	}
}

func TestCallReturn(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #5
		BL double
		BL double
		HALT
	double:
		ADD R0, R0, R0
		BX LR
	`)
	runToHalt(t, c)
	if c.Regs[isa.R0] != 20 {
		t.Fatalf("R0 = %d, want 20", c.Regs[isa.R0])
	}
}

func TestLoadStoreWidths(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #0
		MOVTI R0, #4096       ; 0x10000000 = data base
		MOVI R1, #4660        ; 0x1234
		MOVTI R1, #22136      ; R1 = 0x56781234
		STR R1, [R0, #0]
		LDRB R2, [R0, #0]     ; 0x34
		LDRB R3, [R0, #3]     ; 0x56
		LDRH R4, [R0, #2]     ; 0x5678
		LDR  R5, [R0, #0]
		STRB R3, [R0, #4]
		LDR  R6, [R0, #4]     ; only low byte written
		HALT
	`)
	runToHalt(t, c)
	checks := map[isa.Reg]uint32{
		isa.R2: 0x34, isa.R3: 0x56, isa.R4: 0x5678, isa.R5: 0x56781234, isa.R6: 0x56,
	}
	for r, v := range checks {
		if c.Regs[r] != v {
			t.Errorf("%s = %#x, want %#x", r, c.Regs[r], v)
		}
	}
}

func TestRegisterOffsetAddressing(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #8
		MOVI R2, #99
		STR R2, [R0, R1]
		LDR R3, [R0, R1]
		HALT
	`)
	runToHalt(t, c)
	if c.Regs[isa.R3] != 99 {
		t.Fatalf("register-offset store/load failed: %d", c.Regs[isa.R3])
	}
}

func TestSkimInstruction(t *testing.T) {
	c, _ := device(t, `
		SKM done
		MOVI R0, #1
	done:
		HALT
	`)
	cost, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !c.SkimArmed || c.SkimTarget != 2*isa.InstBytes {
		t.Fatalf("skim register not armed correctly: %v %#x", c.SkimArmed, c.SkimTarget)
	}
	if cost.NVWrites != 1 {
		t.Fatalf("SKM should count one NV write (the skim register), got %d", cost.NVWrites)
	}
	c.DisarmSkim()
	if c.SkimArmed || c.SkimTarget != 0 {
		t.Fatal("DisarmSkim did not clear")
	}
}

func TestSnapshotRestore(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #41
		CMPI R0, #41
		MOVI R1, #1
		HALT
	`)
	c.Step()
	c.Step()
	snap := c.Snapshot()
	runToHalt(t, c)
	c.Restore(snap)
	if c.Halted {
		t.Fatal("restore should clear halt")
	}
	if c.Regs[isa.R1] == 1 {
		t.Fatal("restore should rewind R1")
	}
	if !c.Z {
		t.Fatal("restore should reinstate flags")
	}
	runToHalt(t, c)
	if c.Regs[isa.R1] != 1 {
		t.Fatal("re-execution after restore failed")
	}
}

func TestPowerLossClearsVolatileState(t *testing.T) {
	c, _ := device(t, `
		SKM end
		MOVI R0, #7
		CMPI R0, #7
	end:
		HALT
	`)
	c.Memo = NewMemoTable()
	c.Memo.Insert(3, 5, 15)
	c.Step()
	c.Step()
	c.Step()
	c.PowerLoss()
	if c.Regs[isa.R0] != 0 || c.Z {
		t.Error("registers and flags are volatile and must clear")
	}
	if !c.SkimArmed {
		t.Error("the skim register is non-volatile and must survive")
	}
	if _, fast := c.Memo.Lookup(3, 5); fast {
		t.Error("memo table is volatile and must invalidate")
	}
}

func TestIllegalInstructionFaults(t *testing.T) {
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram([]byte{0, 0, 0, 0xFF}); err != nil {
		t.Fatal(err)
	}
	c := New(m)
	if _, err := c.Step(); err == nil || !strings.Contains(err.Error(), "illegal") {
		t.Fatalf("expected illegal-instruction fault, got %v", err)
	}
}

func TestMisalignedPCFaults(t *testing.T) {
	c, _ := device(t, "HALT")
	c.Regs[isa.PC] = 2
	if _, err := c.Step(); err == nil {
		t.Fatal("expected misaligned-PC fault")
	}
}

func TestPCOutsideCodeFaults(t *testing.T) {
	c, _ := device(t, "HALT")
	c.Regs[isa.PC] = 0x0FFF_0000
	if _, err := c.Step(); err == nil {
		t.Fatal("expected out-of-code fault")
	}
}

func TestUnmappedLoadFaults(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #0
		MOVTI R0, #40000
		LDR R1, [R0, #0]
		HALT
	`)
	c.Step()
	c.Step()
	if _, err := c.Step(); err == nil {
		t.Fatal("expected unmapped-access fault")
	}
}

func TestHaltedCPUStaysHalted(t *testing.T) {
	c, _ := device(t, "HALT")
	runToHalt(t, c)
	cost, err := c.Step()
	if err != nil || cost.Cycles != 0 {
		t.Fatalf("stepping a halted CPU should be free: %v %v", cost, err)
	}
}

func TestBeforeStoreHook(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #5
		STR R1, [R0, #0]
		STRH R1, [R0, #4]
		STRB R1, [R0, #6]
		HALT
	`)
	type call struct {
		addr uint32
		size int
	}
	var calls []call
	c.BeforeStore = func(addr uint32, size int) {
		calls = append(calls, call{addr, size})
	}
	runToHalt(t, c)
	want := []call{{0x10000000, 4}, {0x10000004, 2}, {0x10000006, 1}}
	if len(calls) != len(want) {
		t.Fatalf("hook calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("call %d = %v, want %v", i, calls[i], want[i])
		}
	}
}

func TestNVWriteAccounting(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #0
		MOVTI R0, #4096   ; NV data
		MOVI R1, #0
		MOVTI R1, #8192   ; volatile SRAM
		MOVI R2, #1
		STR R2, [R0, #0]
		STR R2, [R1, #0]
		HALT
	`)
	var nv int
	for !c.Halted {
		cost, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		nv += cost.NVWrites
	}
	if nv != 1 {
		t.Fatalf("NV writes = %d, want 1 (SRAM stores are free)", nv)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #2
		MOVI R1, #3
		MUL R2, R0, R1
		HALT
	`)
	c.SetAmenablePCs([]uint32{2 * isa.InstBytes})
	cycles := runToHalt(t, c)
	if c.Stats.Instructions != 4 {
		t.Errorf("instructions = %d", c.Stats.Instructions)
	}
	if c.Stats.Cycles != cycles {
		t.Errorf("stats cycles %d != measured %d", c.Stats.Cycles, cycles)
	}
	if c.Stats.AmenableOps != 1 {
		t.Errorf("amenable ops = %d", c.Stats.AmenableOps)
	}
}

// --- segmented-carry adder properties ---

// refLaneAdd is the obvious per-lane reference implementation.
func refLaneAdd(a, b uint32, lane uint, sub bool) uint32 {
	mask := uint32(1)<<lane - 1
	var out uint32
	for sh := uint(0); sh < 32; sh += lane {
		la := (a >> sh) & mask
		lb := (b >> sh) & mask
		var lr uint32
		if sub {
			lr = (la - lb) & mask
		} else {
			lr = (la + lb) & mask
		}
		out |= lr << sh
	}
	return out
}

func TestAddASVAgainstReference(t *testing.T) {
	for _, lane := range []uint{4, 8, 16} {
		lane := lane
		f := func(a, b uint32) bool {
			return AddASV(a, b, lane) == refLaneAdd(a, b, lane, false)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Errorf("AddASV lane %d: %v", lane, err)
		}
	}
}

func TestSubASVAgainstReference(t *testing.T) {
	for _, lane := range []uint{4, 8, 16} {
		lane := lane
		f := func(a, b uint32) bool {
			return SubASV(a, b, lane) == refLaneAdd(a, b, lane, true)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Errorf("SubASV lane %d: %v", lane, err)
		}
	}
}

func TestASVSubInverts(t *testing.T) {
	f := func(a, b uint32) bool {
		for _, lane := range []uint{4, 8, 16} {
			if SubASV(AddASV(a, b, lane), b, lane) != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestASVFullWidthFallback(t *testing.T) {
	a, b := uint32(7), uint32(9)
	if AddASV(a, b, 0) != 16 || SubASV(a, b, 32) != a-b {
		t.Error("degenerate lane widths should behave as plain 32-bit ops")
	}
}

func TestADDASVInstruction(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #511      ; 0x01FF: lanes FF and 01
		MOVI R1, #257      ; 0x0101
		ADD_ASV8 R0, R1    ; lane0: FF+01=00 (carry dropped), lane1: 01+01=02
		HALT
	`)
	runToHalt(t, c)
	if c.Regs[isa.R0] != 0x0200 {
		t.Fatalf("ADD_ASV8 = %#x, want 0x0200 (no carry across lanes)", c.Regs[isa.R0])
	}
}

// --- memoization ---

func TestMemoTableBehavior(t *testing.T) {
	mt := NewMemoTable()
	if _, fast := mt.Lookup(100, 200); fast {
		t.Fatal("empty table cannot hit")
	}
	mt.Insert(100, 200, 20000)
	if p, fast := mt.Lookup(100, 200); !fast || p != 20000 {
		t.Fatal("inserted entry should hit")
	}
	// Zero operands skip without touching the table.
	if p, fast := mt.Lookup(0, 7); !fast || p != 0 {
		t.Fatal("zero skipping failed")
	}
	mt.Insert(0, 7, 0)
	if mt.ZeroSkips != 1 || mt.Hits != 1 || mt.Misses != 1 {
		t.Fatalf("stats = %+v", *mt)
	}
	// A conflicting pair (same index) evicts.
	mt.Insert(100+4, 200+4, 1) // same two LSBs => same slot
	if _, fast := mt.Lookup(100, 200); fast {
		t.Fatal("conflicting insert should have evicted")
	}
	mt.Invalidate()
	if _, fast := mt.Lookup(104, 204); fast {
		t.Fatal("invalidate should clear entries")
	}
	if mt.Hits != 1 {
		t.Fatal("invalidate should keep statistics")
	}
	mt.Reset()
	if mt.Hits != 0 || mt.Misses == 0 {
		// Reset clears everything; the lookups above after Reset counted.
	}
}

func TestMemoizedMulCostsOneCycle(t *testing.T) {
	c, _ := device(t, `
		MOVI R0, #123
		MOVI R1, #45
		MUL R2, R0, R1
		MUL R3, R0, R1
		MUL R4, R1, R5   ; R5=0: zero skip
		HALT
	`)
	c.Memo = NewMemoTable()
	var costs []uint32
	for !c.Halted {
		pc := c.Regs[isa.PC]
		cost, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if pc >= 2*isa.InstBytes && pc <= 4*isa.InstBytes {
			costs = append(costs, cost.Cycles)
		}
	}
	if len(costs) != 3 || costs[0] != 16 || costs[1] != 1 || costs[2] != 1 {
		t.Fatalf("MUL costs = %v, want [16 1 1]", costs)
	}
	if c.Regs[isa.R3] != 123*45 || c.Regs[isa.R4] != 0 {
		t.Fatal("memoized results wrong")
	}
}

func TestResetPreservesSkim(t *testing.T) {
	c, _ := device(t, "SKM #8\nNOP\nHALT")
	c.Step()
	c.Reset()
	if !c.SkimArmed {
		t.Fatal("Reset must not clear the non-volatile skim register")
	}
	if c.Regs[isa.PC] != mem.CodeBase {
		t.Fatal("Reset should return PC to the code base")
	}
}
