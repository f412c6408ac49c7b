package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisterNames(t *testing.T) {
	cases := map[Reg]string{
		R0: "R0", R7: "R7", R12: "R12", SP: "SP", LR: "LR", PC: "PC",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestOpcodeTableComplete(t *testing.T) {
	for op := 0; op < NumOpcodes; op++ {
		o := Opcode(op)
		if o.Name() == "" {
			t.Errorf("opcode %d has no name", op)
		}
		if o.BaseCycles() == 0 {
			t.Errorf("opcode %s has zero cycle cost", o.Name())
		}
	}
}

func TestOpcodeNamesUnique(t *testing.T) {
	seen := map[string]Opcode{}
	for op := 0; op < NumOpcodes; op++ {
		name := Opcode(op).Name()
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %d and %d share mnemonic %q", prev, op, name)
		}
		seen[name] = Opcode(op)
	}
}

func TestCycleCosts(t *testing.T) {
	cases := map[Opcode]uint32{
		OpAdd:     1,
		OpLdr:     2,
		OpStr:     2,
		OpMul:     16, // the M0+ iterative multiplier
		OpMulASP1: 1,
		OpMulASP2: 2,
		OpMulASP3: 3,
		OpMulASP4: 4,
		OpMulASP8: 8,
		OpAddASV8: 1,
		OpSkm:     1,
	}
	for op, want := range cases {
		if got := op.BaseCycles(); got != want {
			t.Errorf("%s costs %d cycles, want %d", op.Name(), got, want)
		}
	}
}

func TestASPHelpers(t *testing.T) {
	for bits, op := range map[uint]Opcode{1: OpMulASP1, 2: OpMulASP2, 3: OpMulASP3, 4: OpMulASP4, 8: OpMulASP8} {
		if op.ASPBits() != bits {
			t.Errorf("%s.ASPBits() = %d, want %d", op.Name(), op.ASPBits(), bits)
		}
		if op.BaseCycles() != uint32(bits) {
			t.Errorf("MUL_ASP%d costs %d cycles, want %d (one per subword bit)", bits, op.BaseCycles(), bits)
		}
		if !op.IsMul() {
			t.Errorf("%s should report IsMul", op.Name())
		}
	}
	if OpAdd.ASPBits() != 0 {
		t.Error("ADD is not an anytime multiply")
	}
}

func TestASVHelpers(t *testing.T) {
	for lane, ops := range map[uint][2]Opcode{4: {OpAddASV4, OpSubASV4}, 8: {OpAddASV8, OpSubASV8}, 16: {OpAddASV16, OpSubASV16}} {
		if ops[0].ASVLane() != lane || ops[1].ASVLane() != lane {
			t.Errorf("lane mismatch for %d-bit ASV ops", lane)
		}
	}
	if OpAdd.ASVLane() != 0 {
		t.Error("ADD is not an anytime vector op")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < NumOpcodes; op++ {
		o := Opcode(op)
		for trial := 0; trial < 200; trial++ {
			in := Instruction{
				Op: o,
				Rd: Reg(rng.Intn(NumRegs)),
				Rn: Reg(rng.Intn(NumRegs)),
			}
			switch {
			case o.HasRm():
				in.Rm = Reg(rng.Intn(NumRegs))
				if o.ASPBits() != 0 {
					in.Imm = int32(rng.Intn(0x1000))
				}
			case opTable[o].signed:
				in.Imm = int32(rng.Intn(1<<16)) - 1<<15
			default:
				in.Imm = int32(rng.Intn(1 << 16))
			}
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("%s: encode %+v: %v", o.Name(), in, err)
			}
			got, err := Decode(w)
			if err != nil {
				t.Fatalf("%s: decode: %v", o.Name(), err)
			}
			// Fields not carried by the encoding are zeroed on decode.
			want := in
			if !o.HasRm() {
				want.Rm = 0
			}
			if got != want {
				t.Fatalf("%s round trip: got %+v want %+v", o.Name(), got, want)
			}
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	cases := []Instruction{
		{Op: OpAddI, Rd: R0, Rn: R1, Imm: 40000},     // over signed 16-bit
		{Op: OpAddI, Rd: R0, Rn: R1, Imm: -40000},    // under signed 16-bit
		{Op: OpMovI, Rd: R0, Imm: -1},                // negative unsigned
		{Op: OpMovI, Rd: R0, Imm: 1 << 16},           // over unsigned 16-bit
		{Op: Opcode(0xFE)},                           // invalid opcode
		{Op: OpAdd, Rd: R0, Rn: R1, Rm: R2, Imm: 7},  // stray immediate on register form
		{Op: OpMulASP8, Rd: R0, Rm: R1, Imm: 0x1000}, // position too large
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%+v) should fail", in)
		}
	}
}

func TestDecodeRejectsIllegalOpcode(t *testing.T) {
	if _, err := Decode(Word(0xFF) << 24); err == nil {
		t.Error("decoding an undefined opcode byte should fail")
	}
}

// TestDecodeTotal uses testing/quick to establish that Decode never panics
// and that every successfully decoded instruction re-encodes to the same
// word (decode is a partial inverse of encode).
func TestDecodeTotal(t *testing.T) {
	f := func(raw uint32) bool {
		in, err := Decode(Word(raw))
		if err != nil {
			return true // illegal opcodes are allowed to fail
		}
		w, err := Encode(in)
		if err != nil {
			// Decoded instructions with junk in unused field bits may not
			// re-encode (e.g. stray imm bits on a register form); decode
			// masks what it uses, so only assert when re-encoding works.
			return true
		}
		got, err := Decode(w)
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestInstructionString(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: OpNop}, "NOP"},
		{Instruction{Op: OpHalt}, "HALT"},
		{Instruction{Op: OpMovI, Rd: R3, Imm: 42}, "MOVI R3, #42"},
		{Instruction{Op: OpMov, Rd: R1, Rm: R2}, "MOV R1, R2"},
		{Instruction{Op: OpAdd, Rd: R1, Rn: R2, Rm: R3}, "ADD R1, R2, R3"},
		{Instruction{Op: OpAddI, Rd: R1, Rn: R2, Imm: -4}, "ADDI R1, R2, #-4"},
		{Instruction{Op: OpCmp, Rn: R5, Rm: R6}, "CMP R5, R6"},
		{Instruction{Op: OpMul, Rd: R1, Rn: R2, Rm: R3}, "MUL R1, R2, R3"},
		{Instruction{Op: OpLdr, Rd: R1, Rn: R2, Imm: 8}, "LDR R1, [R2, #8]"},
		{Instruction{Op: OpLdrX, Rd: R1, Rn: R2, Rm: R3}, "LDRX R1, [R2, R3]"},
		{Instruction{Op: OpMulASP8, Rd: R4, Rm: R5, Imm: 1}, "MUL_ASP8 R4, R5, #1"},
		{Instruction{Op: OpAddASV8, Rd: R3, Rm: R4}, "ADD_ASV8 R3, R4"},
		{Instruction{Op: OpSkm, Imm: 64}, "SKM #64"},
		{Instruction{Op: OpB, Imm: -8}, "B #-8"},
		{Instruction{Op: OpBx, Rm: LR}, "BX LR"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !OpLdrb.IsLoad() || OpLdrb.IsStore() {
		t.Error("LDRB should be a load")
	}
	if !OpStrhX.IsStore() || OpStrhX.IsLoad() {
		t.Error("STRHX should be a store")
	}
	for _, op := range []Opcode{OpB, OpBeq, OpBne, OpBlt, OpBge, OpBgt, OpBle, OpBlo, OpBhs, OpBl, OpBx} {
		if !op.IsBranch() {
			t.Errorf("%s should be a branch", op.Name())
		}
	}
	if OpAdd.IsBranch() || OpAdd.IsLoad() || OpAdd.IsMul() {
		t.Error("ADD misclassified")
	}
	if !strings.HasPrefix(Opcode(200).Name(), "OP(") {
		t.Error("out-of-range opcode should render as OP(n)")
	}
}

func TestAccessBytes(t *testing.T) {
	want := map[Opcode]int{
		OpLdr: 4, OpLdrX: 4, OpStr: 4, OpStrX: 4,
		OpLdrh: 2, OpLdrhX: 2, OpStrh: 2, OpStrhX: 2,
		OpLdrb: 1, OpLdrbX: 1, OpStrb: 1, OpStrbX: 1,
	}
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		w, mem := want[op]
		if mem != (op.IsLoad() || op.IsStore()) {
			t.Errorf("%s: width table and load/store class disagree", op.Name())
		}
		if got := op.AccessBytes(); got != w {
			t.Errorf("%s.AccessBytes() = %d, want %d", op.Name(), got, w)
		}
	}
}

// TestShiftEdges pins the shift values at the amounts where Go's own
// shifts and the ISA's part ways: 32 and more clear LSL/LSR and sign-fill
// ASR.
func TestShiftEdges(t *testing.T) {
	cases := []struct {
		v, by         uint32
		lsl, lsr, asr uint32
	}{
		{0x8000_0001, 0, 0x8000_0001, 0x8000_0001, 0x8000_0001},
		{0x8000_0001, 1, 0x0000_0002, 0x4000_0000, 0xC000_0000},
		{0x8000_0001, 31, 0x8000_0000, 0x0000_0001, 0xFFFF_FFFF},
		{0x8000_0001, 32, 0, 0, 0xFFFF_FFFF},
		{0x8000_0001, 255, 0, 0, 0xFFFF_FFFF},
		{0x7FFF_FFFF, 31, 0x8000_0000, 0, 0},
		{0x7FFF_FFFF, 32, 0, 0, 0},
		{0x7FFF_FFFF, 255, 0, 0, 0},
		{0xFFFF_FFF0, 4, 0xFFFF_FF00, 0x0FFF_FFFF, 0xFFFF_FFFF},
		{0xFFFF_FF00, 0xFFFF_FFFF, 0, 0, 0xFFFF_FFFF},
	}
	for _, c := range cases {
		if got := ShiftL(c.v, c.by); got != c.lsl {
			t.Errorf("ShiftL(%#x, %d) = %#x, want %#x", c.v, c.by, got, c.lsl)
		}
		if got := ShiftR(c.v, c.by); got != c.lsr {
			t.Errorf("ShiftR(%#x, %d) = %#x, want %#x", c.v, c.by, got, c.lsr)
		}
		if got := ShiftAR(c.v, c.by); got != c.asr {
			t.Errorf("ShiftAR(%#x, %d) = %#x, want %#x", c.v, c.by, got, c.asr)
		}
	}
}

// TestSubFlags pins CMP's NZCV, including signed overflow (V) and the
// unsigned no-borrow carry (C).
func TestSubFlags(t *testing.T) {
	cases := []struct {
		a, b       uint32
		n, z, c, v bool
	}{
		{5, 5, false, true, true, false},
		{5, 3, false, false, true, false},
		{3, 5, true, false, false, false},
		{0, 1, true, false, false, false},                    // unsigned borrow
		{0x8000_0000, 1, false, false, true, true},           // INT_MIN - 1 overflows positive
		{0x7FFF_FFFF, 0xFFFF_FFFF, true, false, false, true}, // INT_MAX - (-1) overflows negative
		{0xFFFF_FFFF, 1, true, false, true, false},           // -1 - 1, no overflow
		{0x8000_0000, 0x8000_0000, false, true, true, false},
		{1, 0x8000_0000, true, false, false, true}, // 1 - INT_MIN overflows
	}
	for _, c := range cases {
		n, z, cf, v := SubFlags(c.a, c.b)
		if n != c.n || z != c.z || cf != c.c || v != c.v {
			t.Errorf("SubFlags(%#x, %#x) = N%v Z%v C%v V%v, want N%v Z%v C%v V%v",
				c.a, c.b, n, z, cf, v, c.n, c.z, c.c, c.v)
		}
	}
}
