package cpu

import (
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/mem"
)

// benchProgram is a mixed loop the simulator spends most real time in:
// loads, an anytime multiply, ALU work, a store, and the loop epilogue.
const benchProgram = `
	MOVI R0, #0
	MOVTI R0, #4096
	MOVI R1, #10000
loop:
	LDRH R2, [R0, #0]
	LDRB R3, [R0, #2]
	MUL_ASP8 R2, R3, #1
	ADD R4, R4, R2
	STR R4, [R0, #4]
	SUBIS R1, R1, #1
	BNE loop
	HALT
`

// BenchmarkStep measures one Step call per op: Run's loop with a one-cycle
// budget and no fusion, so it includes the per-call entry and exit.
func BenchmarkStep(b *testing.B) {
	p, err := asm.Assemble(benchProgram)
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(p.Image); err != nil {
		b.Fatal(err)
	}
	c := New(m)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		if c.Halted {
			c.Reset()
		}
		if _, err := c.Step(); err != nil {
			b.Fatal(err)
		}
		instrs++
	}
	b.ReportMetric(float64(instrs), "instructions")
}

// BenchmarkMul16 measures the iterative-multiplier path.
func BenchmarkMul16(b *testing.B) {
	p, _ := asm.Assemble("loop: MUL R2, R3, R4\nB loop")
	m := mem.New(mem.DefaultConfig())
	m.LoadProgram(p.Image)
	c := New(m)
	c.Regs[3], c.Regs[4] = 12345, 678
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkAddASV measures the SWAR lane adder.
func BenchmarkAddASV(b *testing.B) {
	var acc uint32
	for i := 0; i < b.N; i++ {
		acc = AddASV(acc, 0x01020304, 8)
	}
	_ = acc
}

// BenchmarkMemoLookup measures the memo table hit path.
func BenchmarkMemoLookup(b *testing.B) {
	t := NewMemoTable()
	t.Insert(123, 456, 123*456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(123, 456)
	}
}

// BenchmarkSuperLoop measures Run over the same program as
// BenchmarkStepLoop: fused superblocks where they start, single slots
// through the same closures elsewhere.
func BenchmarkSuperLoop(b *testing.B) {
	p, err := asm.Assemble(benchProgram)
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(p.Image); err != nil {
		b.Fatal(err)
	}
	c := New(m)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		c.Reset()
		for !c.Halted {
			res, err := c.Run(1<<62, nil)
			if err != nil {
				b.Fatal(err)
			}
			instrs += res.Instructions
		}
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instructions/op")
}

// BenchmarkStepLoop measures Run's per-slot path over the same program as
// BenchmarkStep: one RunUntil call (Run with fusion off) per full program
// execution instead of a Step call per instruction.
func BenchmarkStepLoop(b *testing.B) {
	p, err := asm.Assemble(benchProgram)
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(p.Image); err != nil {
		b.Fatal(err)
	}
	c := New(m)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		c.Reset()
		for !c.Halted {
			res, err := c.RunUntil(1<<62, nil)
			if err != nil {
				b.Fatal(err)
			}
			instrs += res.Instructions
		}
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instructions/op")
}
