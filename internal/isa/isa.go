// Package isa defines the instruction set of the WN processor: a compact,
// ARMv6-M-profile register machine extended with the What's Next anytime
// instructions (subword-pipelined multiply MUL_ASP, subword-vectorized
// add/subtract ADD_ASV/SUB_ASV, and the skim-point instruction SKM).
//
// The encoding is a fixed-width 32-bit word:
//
//	bits 31..24  opcode
//	bits 23..20  Rd
//	bits 19..16  Rn
//	bits 15..0   Imm (16-bit immediate, signed or unsigned per opcode),
//	             or Rm in bits 3..0 for register forms.
//
// The cycle costs attached to each opcode follow the ARM Cortex-M0+ profile
// used by the paper: single-cycle ALU operations, 2-cycle loads, stores and
// taken branches, and a 16-cycle iterative multiplier. MUL_ASP with a B-bit
// subword takes B cycles.
package isa

import "fmt"

// Reg identifies one of the 16 architectural registers.
type Reg uint8

// Register aliases. SP, LR and PC follow the ARM convention.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	SP // R13: stack pointer
	LR // R14: link register
	PC // R15: program counter
)

// NumRegs is the number of architectural registers.
const NumRegs = 16

// String returns the assembler name of the register.
func (r Reg) String() string {
	switch r {
	case SP:
		return "SP"
	case LR:
		return "LR"
	case PC:
		return "PC"
	default:
		return fmt.Sprintf("R%d", uint8(r))
	}
}

// Opcode identifies an instruction.
type Opcode uint8

// Instruction opcodes. The *I suffix marks immediate forms; the X suffix on
// memory operations marks register-offset addressing.
const (
	OpNop Opcode = iota
	OpHalt

	// Data movement.
	OpMov   // MOV   Rd, Rm
	OpMovI  // MOVI  Rd, #imm16         (Rd = zero-extended imm)
	OpMovTI // MOVTI Rd, #imm16         (Rd[31:16] = imm, low half kept)

	// ALU, register and immediate forms. Flags are set only by CMP/CMPI.
	OpAdd  // ADD Rd, Rn, Rm
	OpAddI // ADDI Rd, Rn, #imm (sign-extended)
	OpSub
	OpSubI
	OpAnd
	OpAndI
	OpOrr
	OpOrrI
	OpEor
	OpEorI
	OpLsl
	OpLslI
	OpLsr
	OpLsrI
	OpAsr
	OpAsrI
	OpCmp   // CMP Rn, Rm   (flags = Rn - Rm)
	OpCmpI  // CMPI Rn, #imm
	OpSubIS // SUBIS Rd, Rn, #imm (subtract and set flags, like ARM SUBS)

	// Multiplication. MUL uses the iterative 16-cycle multiplier.
	OpMul // MUL Rd, Rn, Rm (Rd = low 32 bits of Rn*Rm)

	// Memory. Immediate-offset and register-offset forms.
	OpLdr   // LDR  Rd, [Rn, #imm]
	OpLdrh  // LDRH Rd, [Rn, #imm]
	OpLdrb  // LDRB Rd, [Rn, #imm]
	OpStr   // STR  Rd, [Rn, #imm]
	OpStrh  // STRH Rd, [Rn, #imm]
	OpStrb  // STRB Rd, [Rn, #imm]
	OpLdrX  // LDRX  Rd, [Rn, Rm]
	OpLdrhX // LDRHX Rd, [Rn, Rm]
	OpLdrbX // LDRBX Rd, [Rn, Rm]
	OpStrX  // STRX  Rd, [Rn, Rm]
	OpStrhX // STRHX Rd, [Rn, Rm]
	OpStrbX // STRBX Rd, [Rn, Rm]

	// Control flow. Branch targets are PC-relative byte offsets except for
	// SKM, which records an absolute byte address in the skim register.
	OpB   // B   #off
	OpBeq // BEQ #off
	OpBne
	OpBlt // signed <
	OpBge // signed >=
	OpBgt // signed >
	OpBle // signed <=
	OpBlo // unsigned <
	OpBhs // unsigned >=
	OpBl  // BL #off  (LR = return address)
	OpBx  // BX Rm    (branch to register; BX LR returns)

	// --- What's Next extension ---

	// Anytime subword-pipelined multiply (Section III-A of the paper):
	//   MUL_ASP<B> Rd, Rm, #pos   =>   Rd = (Rd * Rm) << (B*pos)
	// Rm holds a B-bit subword of the approximable operand; the iterative
	// multiplier runs only B steps, so the instruction costs B cycles.
	OpMulASP1
	OpMulASP2
	OpMulASP3
	OpMulASP4
	OpMulASP8

	// Anytime subword-vectorized add/sub (Section III-B): lane-parallel
	// arithmetic with the carry chain segmented at lane boundaries.
	//   ADD_ASV<L> Rd, Rm   =>   Rd = Rd +(L-bit lanes) Rm
	OpAddASV4
	OpAddASV8
	OpAddASV16
	OpSubASV4
	OpSubASV8
	OpSubASV16

	// Skim point (Section III-C): arm the non-volatile skim register with an
	// absolute target address. After a power outage, the restore path jumps
	// to the armed target instead of the checkpointed PC.
	OpSkm

	numOpcodes // sentinel
)

// NumOpcodes is the count of defined opcodes.
const NumOpcodes = int(numOpcodes)

// Instruction is a decoded instruction.
type Instruction struct {
	Op  Opcode
	Rd  Reg
	Rn  Reg
	Rm  Reg   // register forms only (low 4 bits of the imm field)
	Imm int32 // sign- or zero-extended immediate per opcode
}

// Word is an encoded instruction.
type Word uint32

// InstBytes is the size in bytes of one encoded instruction.
const InstBytes = 4

type opInfo struct {
	name     string
	cycles   uint32
	signed   bool // immediate is sign-extended
	hasRm    bool // register operand in the imm field
	isBranch bool
	isLoad   bool
	isStore  bool
	access   uint8 // data-memory access width in bytes (loads and stores)
}

var opTable = [NumOpcodes]opInfo{
	OpNop:  {name: "NOP", cycles: 1},
	OpHalt: {name: "HALT", cycles: 1},

	OpMov:   {name: "MOV", cycles: 1, hasRm: true},
	OpMovI:  {name: "MOVI", cycles: 1},
	OpMovTI: {name: "MOVTI", cycles: 1},

	OpAdd:   {name: "ADD", cycles: 1, hasRm: true},
	OpAddI:  {name: "ADDI", cycles: 1, signed: true},
	OpSub:   {name: "SUB", cycles: 1, hasRm: true},
	OpSubI:  {name: "SUBI", cycles: 1, signed: true},
	OpAnd:   {name: "AND", cycles: 1, hasRm: true},
	OpAndI:  {name: "ANDI", cycles: 1},
	OpOrr:   {name: "ORR", cycles: 1, hasRm: true},
	OpOrrI:  {name: "ORRI", cycles: 1},
	OpEor:   {name: "EOR", cycles: 1, hasRm: true},
	OpEorI:  {name: "EORI", cycles: 1},
	OpLsl:   {name: "LSL", cycles: 1, hasRm: true},
	OpLslI:  {name: "LSLI", cycles: 1},
	OpLsr:   {name: "LSR", cycles: 1, hasRm: true},
	OpLsrI:  {name: "LSRI", cycles: 1},
	OpAsr:   {name: "ASR", cycles: 1, hasRm: true},
	OpAsrI:  {name: "ASRI", cycles: 1},
	OpCmp:   {name: "CMP", cycles: 1, hasRm: true},
	OpCmpI:  {name: "CMPI", cycles: 1, signed: true},
	OpSubIS: {name: "SUBIS", cycles: 1, signed: true},

	OpMul: {name: "MUL", cycles: 16, hasRm: true},

	OpLdr:   {name: "LDR", cycles: 2, signed: true, isLoad: true, access: 4},
	OpLdrh:  {name: "LDRH", cycles: 2, signed: true, isLoad: true, access: 2},
	OpLdrb:  {name: "LDRB", cycles: 2, signed: true, isLoad: true, access: 1},
	OpStr:   {name: "STR", cycles: 2, signed: true, isStore: true, access: 4},
	OpStrh:  {name: "STRH", cycles: 2, signed: true, isStore: true, access: 2},
	OpStrb:  {name: "STRB", cycles: 2, signed: true, isStore: true, access: 1},
	OpLdrX:  {name: "LDRX", cycles: 2, hasRm: true, isLoad: true, access: 4},
	OpLdrhX: {name: "LDRHX", cycles: 2, hasRm: true, isLoad: true, access: 2},
	OpLdrbX: {name: "LDRBX", cycles: 2, hasRm: true, isLoad: true, access: 1},
	OpStrX:  {name: "STRX", cycles: 2, hasRm: true, isStore: true, access: 4},
	OpStrhX: {name: "STRHX", cycles: 2, hasRm: true, isStore: true, access: 2},
	OpStrbX: {name: "STRBX", cycles: 2, hasRm: true, isStore: true, access: 1},

	OpB:   {name: "B", cycles: 2, signed: true, isBranch: true},
	OpBeq: {name: "BEQ", cycles: 1, signed: true, isBranch: true},
	OpBne: {name: "BNE", cycles: 1, signed: true, isBranch: true},
	OpBlt: {name: "BLT", cycles: 1, signed: true, isBranch: true},
	OpBge: {name: "BGE", cycles: 1, signed: true, isBranch: true},
	OpBgt: {name: "BGT", cycles: 1, signed: true, isBranch: true},
	OpBle: {name: "BLE", cycles: 1, signed: true, isBranch: true},
	OpBlo: {name: "BLO", cycles: 1, signed: true, isBranch: true},
	OpBhs: {name: "BHS", cycles: 1, signed: true, isBranch: true},
	OpBl:  {name: "BL", cycles: 2, signed: true, isBranch: true},
	OpBx:  {name: "BX", cycles: 2, hasRm: true, isBranch: true},

	OpMulASP1: {name: "MUL_ASP1", cycles: 1, hasRm: true},
	OpMulASP2: {name: "MUL_ASP2", cycles: 2, hasRm: true},
	OpMulASP3: {name: "MUL_ASP3", cycles: 3, hasRm: true},
	OpMulASP4: {name: "MUL_ASP4", cycles: 4, hasRm: true},
	OpMulASP8: {name: "MUL_ASP8", cycles: 8, hasRm: true},

	OpAddASV4:  {name: "ADD_ASV4", cycles: 1, hasRm: true},
	OpAddASV8:  {name: "ADD_ASV8", cycles: 1, hasRm: true},
	OpAddASV16: {name: "ADD_ASV16", cycles: 1, hasRm: true},
	OpSubASV4:  {name: "SUB_ASV4", cycles: 1, hasRm: true},
	OpSubASV8:  {name: "SUB_ASV8", cycles: 1, hasRm: true},
	OpSubASV16: {name: "SUB_ASV16", cycles: 1, hasRm: true},

	OpSkm: {name: "SKM", cycles: 1},
}

// Name returns the assembler mnemonic of the opcode.
func (op Opcode) Name() string {
	if int(op) < NumOpcodes {
		return opTable[op].name
	}
	return fmt.Sprintf("OP(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return int(op) < NumOpcodes }

// BaseCycles returns the cycle cost of the opcode, excluding dynamic effects
// (taken-branch penalty, memoization hits).
func (op Opcode) BaseCycles() uint32 { return opTable[op].cycles }

// HasRm reports whether the instruction carries a register in the imm field.
func (op Opcode) HasRm() bool { return opTable[op].hasRm }

// IsBranch reports whether the opcode is a control-flow instruction.
func (op Opcode) IsBranch() bool { return opTable[op].isBranch }

// IsLoad reports whether the opcode reads data memory.
func (op Opcode) IsLoad() bool { return opTable[op].isLoad }

// IsStore reports whether the opcode writes data memory.
func (op Opcode) IsStore() bool { return opTable[op].isStore }

// AccessBytes returns the data-memory access width of a load or store in
// bytes (4, 2 or 1), or 0 for every other opcode.
func (op Opcode) AccessBytes() int { return int(opTable[op].access) }

// IsMul reports whether the opcode uses the iterative multiplier (precise or
// anytime subword-pipelined form).
func (op Opcode) IsMul() bool {
	switch op {
	case OpMul, OpMulASP1, OpMulASP2, OpMulASP3, OpMulASP4, OpMulASP8:
		return true
	}
	return false
}

// ASPBits returns the subword width of an anytime multiply, or 0 if op is
// not a MUL_ASP instruction.
func (op Opcode) ASPBits() uint {
	switch op {
	case OpMulASP1:
		return 1
	case OpMulASP2:
		return 2
	case OpMulASP3:
		return 3
	case OpMulASP4:
		return 4
	case OpMulASP8:
		return 8
	}
	return 0
}

// ASVLane returns the lane width of an anytime vector add/sub, or 0 if op is
// not an ASV instruction.
func (op Opcode) ASVLane() uint {
	switch op {
	case OpAddASV4, OpSubASV4:
		return 4
	case OpAddASV8, OpSubASV8:
		return 8
	case OpAddASV16, OpSubASV16:
		return 16
	}
	return 0
}

// Encode packs an instruction into its 32-bit representation. It returns an
// error if a field is out of range (immediate overflow, bad register).
func Encode(in Instruction) (Word, error) {
	if !in.Op.Valid() {
		return 0, fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if in.Rd >= NumRegs || in.Rn >= NumRegs || in.Rm >= NumRegs {
		return 0, fmt.Errorf("isa: register out of range in %s", in.Op.Name())
	}
	info := opTable[in.Op]
	var imm uint32
	if info.hasRm {
		if in.Imm != 0 {
			// Register-form instructions with a meaningful immediate:
			// MUL_ASP carries the subword position alongside Rm.
			if in.Op.ASPBits() == 0 {
				return 0, fmt.Errorf("isa: %s does not take an immediate", in.Op.Name())
			}
			if in.Imm < 0 || in.Imm > 0xFFF {
				return 0, fmt.Errorf("isa: %s position %d out of range", in.Op.Name(), in.Imm)
			}
		}
		imm = uint32(in.Rm) | uint32(in.Imm)<<4
	} else if info.signed {
		if in.Imm < -(1<<15) || in.Imm >= 1<<15 {
			return 0, fmt.Errorf("isa: %s immediate %d out of signed 16-bit range", in.Op.Name(), in.Imm)
		}
		imm = uint32(uint16(in.Imm))
	} else {
		if in.Imm < 0 || in.Imm > 0xFFFF {
			return 0, fmt.Errorf("isa: %s immediate %d out of unsigned 16-bit range", in.Op.Name(), in.Imm)
		}
		imm = uint32(in.Imm)
	}
	w := uint32(in.Op)<<24 | uint32(in.Rd)<<20 | uint32(in.Rn)<<16 | imm&0xFFFF
	return Word(w), nil
}

// Decode unpacks a 32-bit instruction word. Unknown opcodes yield an error,
// which the CPU reports as an illegal-instruction fault.
func Decode(w Word) (Instruction, error) {
	op := Opcode(w >> 24)
	if !op.Valid() {
		return Instruction{}, fmt.Errorf("isa: illegal opcode byte %#02x", uint8(op))
	}
	info := opTable[op]
	in := Instruction{
		Op: op,
		Rd: Reg(w >> 20 & 0xF),
		Rn: Reg(w >> 16 & 0xF),
	}
	raw := uint32(w & 0xFFFF)
	switch {
	case info.hasRm:
		in.Rm = Reg(raw & 0xF)
		in.Imm = int32(raw >> 4)
	case info.signed:
		in.Imm = int32(int16(raw))
	default:
		in.Imm = int32(raw)
	}
	return in, nil
}

// String renders the instruction in assembler syntax.
func (in Instruction) String() string {
	name := in.Op.Name()
	switch {
	case in.Op == OpNop || in.Op == OpHalt:
		return name
	case in.Op == OpMov:
		return fmt.Sprintf("%s %s, %s", name, in.Rd, in.Rm)
	case in.Op == OpMovI || in.Op == OpMovTI:
		return fmt.Sprintf("%s %s, #%d", name, in.Rd, in.Imm)
	case in.Op == OpCmp:
		return fmt.Sprintf("%s %s, %s", name, in.Rn, in.Rm)
	case in.Op == OpCmpI:
		return fmt.Sprintf("%s %s, #%d", name, in.Rn, in.Imm)
	case in.Op == OpMul:
		return fmt.Sprintf("%s %s, %s, %s", name, in.Rd, in.Rn, in.Rm)
	case in.Op.ASPBits() != 0:
		return fmt.Sprintf("%s %s, %s, #%d", name, in.Rd, in.Rm, in.Imm)
	case in.Op.ASVLane() != 0:
		return fmt.Sprintf("%s %s, %s", name, in.Rd, in.Rm)
	case in.Op.IsLoad() || in.Op.IsStore():
		if in.Op.HasRm() {
			return fmt.Sprintf("%s %s, [%s, %s]", name, in.Rd, in.Rn, in.Rm)
		}
		return fmt.Sprintf("%s %s, [%s, #%d]", name, in.Rd, in.Rn, in.Imm)
	case in.Op == OpBx:
		return fmt.Sprintf("%s %s", name, in.Rm)
	case in.Op == OpSkm:
		return fmt.Sprintf("%s #%d", name, in.Imm)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s #%d", name, in.Imm)
	case in.Op.HasRm():
		return fmt.Sprintf("%s %s, %s, %s", name, in.Rd, in.Rn, in.Rm)
	default:
		return fmt.Sprintf("%s %s, %s, #%d", name, in.Rd, in.Rn, in.Imm)
	}
}

// ShiftL is LSL's value: shift amounts of 32 and more clear the register.
func ShiftL(v, by uint32) uint32 {
	if by >= 32 {
		return 0
	}
	return v << by
}

// ShiftR is LSR's value: shift amounts of 32 and more clear the register.
func ShiftR(v, by uint32) uint32 {
	if by >= 32 {
		return 0
	}
	return v >> by
}

// ShiftAR is ASR's value: shift amounts of 32 and more fill the register
// with the sign bit.
func ShiftAR(v, by uint32) uint32 {
	if by >= 32 {
		by = 31
	}
	return uint32(int32(v) >> by)
}

// SubFlags returns the NZCV flags CMP, CMPI and SUBIS set for the
// subtraction a-b (ARM semantics: C is the no-borrow flag). V, signed
// overflow, is set when a and b differ in sign and the result's sign
// differs from a's.
func SubFlags(a, b uint32) (n, z, c, v bool) {
	r := a - b
	return int32(r) < 0, r == 0, a >= b, int32((a^b)&(a^r)) < 0
}
