package asm

import (
	"strings"
	"testing"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func decodeAt(t *testing.T, p *Program, idx int) isa.Instruction {
	t.Helper()
	off := idx * isa.InstBytes
	w := uint32(p.Image[off]) | uint32(p.Image[off+1])<<8 | uint32(p.Image[off+2])<<16 | uint32(p.Image[off+3])<<24
	in, err := isa.Decode(isa.Word(w))
	if err != nil {
		t.Fatalf("decode word %d: %v", idx, err)
	}
	return in
}

func TestBasicProgram(t *testing.T) {
	p := mustAssemble(t, `
		; a comment
		MOVI R0, #10
		MOVI R1, #0
	loop:
		ADD R1, R1, R0
		SUBIS R0, R0, #1
		BNE loop
		HALT
	`)
	if got := len(p.Image) / isa.InstBytes; got != 6 {
		t.Fatalf("got %d instructions, want 6", got)
	}
	if addr, ok := p.Labels["loop"]; !ok || addr != mem.CodeBase+2*isa.InstBytes {
		t.Fatalf("label loop at %#x", addr)
	}
	// The BNE at index 4 targets index 2: offset -2 instructions.
	bne := decodeAt(t, p, 4)
	if bne.Op != isa.OpBne || bne.Imm != -2*isa.InstBytes {
		t.Fatalf("BNE decoded as %+v", bne)
	}
}

func TestImmediatePromotion(t *testing.T) {
	p := mustAssemble(t, `
		ADD R0, R1, R2
		ADD R0, R1, #5
		MOV R0, R1
		MOV R0, #7
		CMP R0, R1
		CMP R0, #-3
		LSL R0, R1, #2
	`)
	wantOps := []isa.Opcode{isa.OpAdd, isa.OpAddI, isa.OpMov, isa.OpMovI, isa.OpCmp, isa.OpCmpI, isa.OpLslI}
	for i, want := range wantOps {
		if got := decodeAt(t, p, i).Op; got != want {
			t.Errorf("instruction %d: got %s, want %s", i, got.Name(), want.Name())
		}
	}
}

func TestMemoryOperandForms(t *testing.T) {
	p := mustAssemble(t, `
		LDR  R1, [R2, #8]
		LDR  R1, [R2, R3]
		LDRB R1, [R2]
		STRH R1, [R2, #-2]
		STR  R1, [R2, R3]
	`)
	want := []struct {
		op  isa.Opcode
		imm int32
	}{
		{isa.OpLdr, 8},
		{isa.OpLdrX, 0},
		{isa.OpLdrb, 0},
		{isa.OpStrh, -2},
		{isa.OpStrX, 0},
	}
	for i, w := range want {
		in := decodeAt(t, p, i)
		if in.Op != w.op || (!in.Op.HasRm() && in.Imm != w.imm) {
			t.Errorf("instruction %d: %+v, want op %s imm %d", i, in, w.op.Name(), w.imm)
		}
	}
}

func TestWNInstructions(t *testing.T) {
	p := mustAssemble(t, `
		MUL_ASP8 R4, R5, #1
		MUL_ASP4 R4, R5, #3
		ADD_ASV8 R3, R4
		SUB_ASV16 R3, R4
	end:
		SKM end
		HALT
	`)
	asp := decodeAt(t, p, 0)
	if asp.Op != isa.OpMulASP8 || asp.Rd != isa.R4 || asp.Rm != isa.R5 || asp.Imm != 1 {
		t.Errorf("MUL_ASP8 decoded as %+v", asp)
	}
	asv := decodeAt(t, p, 2)
	if asv.Op != isa.OpAddASV8 || asv.Rd != isa.R3 || asv.Rm != isa.R4 {
		t.Errorf("ADD_ASV8 decoded as %+v", asv)
	}
	skm := decodeAt(t, p, 4)
	if skm.Op != isa.OpSkm || uint32(skm.Imm) != p.Labels["end"] {
		t.Errorf("SKM decoded as %+v (end at %#x)", skm, p.Labels["end"])
	}
}

func TestAmenableDirective(t *testing.T) {
	p := mustAssemble(t, `
		MOVI R0, #1
		.amenable
		MUL R1, R0, R0
		ADD R1, R1, R0
		.amenable
		MUL R1, R0, R0
	`)
	if len(p.Amenable) != 2 {
		t.Fatalf("amenable count = %d, want 2", len(p.Amenable))
	}
	want := []uint32{mem.CodeBase + 1*isa.InstBytes, mem.CodeBase + 3*isa.InstBytes}
	for i, a := range p.Amenable {
		if a != want[i] {
			t.Errorf("amenable[%d] = %#x, want %#x", i, a, want[i])
		}
	}
}

func TestBoundDirective(t *testing.T) {
	p := mustAssemble(t, `
		MOVI R0, #8
	loop:
		.bound 0x40
		SUBIS R0, R0, #1
		BNE loop
		HALT
	`)
	if len(p.Bounds) != 1 {
		t.Fatalf("bounds = %v, want one entry", p.Bounds)
	}
	addr := uint32(mem.CodeBase + 1*isa.InstBytes)
	if p.Bounds[addr] != 0x40 {
		t.Errorf("Bounds[%#x] = %d, want 64", addr, p.Bounds[addr])
	}
	for _, bad := range []string{".bound", ".bound 0", ".bound -3", ".bound lots"} {
		if _, err := Assemble(bad + "\n HALT"); err == nil {
			t.Errorf("%q: expected an error", bad)
		}
	}
}

func TestWordDirective(t *testing.T) {
	p := mustAssemble(t, `
		.word 0xDEADBEEF
		.word 123
	`)
	if len(p.Image) != 8 {
		t.Fatalf("image is %d bytes", len(p.Image))
	}
	w := uint32(p.Image[0]) | uint32(p.Image[1])<<8 | uint32(p.Image[2])<<16 | uint32(p.Image[3])<<24
	if w != 0xDEADBEEF {
		t.Errorf(".word emitted %#x", w)
	}
}

func TestLabelSharingLine(t *testing.T) {
	p := mustAssemble(t, `
	a: b: MOVI R0, #1
		B a
	`)
	if p.Labels["a"] != p.Labels["b"] {
		t.Error("labels on one line should share the address")
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"undefined label":  "B nowhere",
		"duplicate label":  "x:\nx:\n HALT",
		"bad mnemonic":     "FROB R0, R1",
		"bad register":     "MOV R99, R1",
		"bad operand":      "ADD R0, R1, $5",
		"bad directive":    ".bogus",
		"imm out of range": "ADDI R0, R1, #999999",
		"skm needs target": "SKM R0",
		"mul needs regs":   "MUL R0, R1, #2",
		"unterminated mem": "LDR R0, [R1",
		"halt takes none":  "HALT R0",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: expected an error for %q", name, src)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("%s: error should be *asm.Error, got %T", name, err)
		}
	}
}

func TestErrorCarriesLineNumber(t *testing.T) {
	_, err := Assemble("MOVI R0, #1\nMOVI R1, #2\nFROB R2\n")
	ae, ok := err.(*Error)
	if !ok || ae.Line != 3 {
		t.Fatalf("error = %v, want line 3", err)
	}
	if !strings.Contains(ae.Error(), "line 3") {
		t.Errorf("message %q should mention the line", ae.Error())
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
		MOVI R0, #4096
		MOVTI R0, #4096
		LDRH R1, [R0, #0]
		MUL_ASP4 R2, R1, #3
		ADD_ASV16 R2, R1
		STR R2, [R0, #4]
		SKM #28
		B #-28
		HALT
	`
	p := mustAssemble(t, src)
	text := Disassemble(p.Image)
	// Re-assembling the disassembly must produce the identical image.
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var re strings.Builder
	for _, l := range lines {
		parts := strings.SplitN(l, ":", 2)
		re.WriteString(parts[1] + "\n")
	}
	p2, err := Assemble(re.String())
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, re.String())
	}
	if string(p2.Image) != string(p.Image) {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", Disassemble(p.Image), Disassemble(p2.Image))
	}
}

func TestDisassembleIllegalWord(t *testing.T) {
	img := []byte{0, 0, 0, 0xFF} // opcode byte 0xFF
	out := Disassemble(img)
	if !strings.Contains(out, ".word") {
		t.Errorf("illegal word should disassemble as .word, got %q", out)
	}
}
