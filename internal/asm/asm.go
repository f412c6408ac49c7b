// Package asm implements a two-pass assembler and a disassembler for the WN
// instruction set.
//
// Syntax, one instruction or directive per line:
//
//	; comment            @ comment also works
//	label:               (may share a line with an instruction)
//	    MOVI R0, #4096
//	    LDR  R1, [R0, #0]
//	    LDR  R2, [R0, R1]       ; register offset selects the X form
//	    ADD  R1, R1, #1         ; immediate operand selects the I form
//	    MUL_ASP8 R4, R5, #1     ; anytime multiply, subword position 1
//	    ADD_ASV8 R3, R4         ; anytime vector add, 8-bit lanes
//	    SKM  done               ; arm skim register with label address
//	    BNE  loop
//	    HALT
//	.amenable                   ; mark the next instruction WN-amenable
//	.bound 64                   ; assert the loop containing the next
//	                            ; instruction iterates at most 64 times
//	.word 0xDEADBEEF            ; raw data word in code memory
//
// Labels in branch positions assemble to PC-relative offsets; the SKM
// operand assembles to an absolute code address.
//
// .bound is an assumption consumed by the wncheck forward-progress
// analysis: when a loop's trip count cannot be inferred statically, the
// directive supplies the worst case and the verification certificate
// records it as an assumption. The bound attaches to the innermost loop
// containing the annotated instruction.
package asm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// Program is an assembled program image.
type Program struct {
	Image    []byte            // encoded instructions, loadable at mem.CodeBase
	Labels   map[string]uint32 // label name -> absolute byte address
	Amenable []uint32          // absolute addresses of WN-amenable instructions
	Bounds   map[uint32]uint64 // .bound trip-count assertions by instruction address
	Source   []string          // one source line per instruction word (for diagnostics)
	Lines    []int             // 1-based source line per instruction word (for diagnostics)
	File     string            // source file name, when assembled via AssembleNamed
}

// Error is an assembly diagnostic with a line number and, when the source
// came in through AssembleNamed, the file it was read from.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.File != "" {
		return fmt.Sprintf("asm: %s:%d: %s", e.File, e.Line, e.Msg)
	}
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type item struct {
	line     int
	text     string
	amenable bool
	bound    uint64 // .bound trip assertion; 0 = none
	rawWord  uint32
	isRaw    bool
}

// AssembleNamed assembles source text read from the named file. The name is
// recorded on the Program and attached to every diagnostic, so errors render
// as "asm: file.s:12: ...".
func AssembleNamed(file, src string) (*Program, error) {
	p, err := Assemble(src)
	if err != nil {
		var ae *Error
		if errors.As(err, &ae) {
			ae.File = file
		}
		return nil, err
	}
	p.File = file
	return p, nil
}

// Assemble translates source text into a Program.
func Assemble(src string) (*Program, error) {
	lines := strings.Split(src, "\n")
	labels := make(map[string]uint32)
	var items []item

	// Pass 1: strip comments, collect labels, list instruction items.
	pendingAmenable := false
	pendingBound := uint64(0)
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexAny(line, ";@"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		for {
			colon := strings.Index(line, ":")
			if colon < 0 {
				break
			}
			name := strings.TrimSpace(line[:colon])
			if !isIdent(name) {
				return nil, errf(ln+1, "invalid label %q", name)
			}
			if _, dup := labels[name]; dup {
				return nil, errf(ln+1, "duplicate label %q", name)
			}
			labels[name] = mem.CodeBase + uint32(len(items))*isa.InstBytes
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, ".amenable"):
			pendingAmenable = true
		case strings.HasPrefix(line, ".bound"):
			arg := strings.TrimSpace(strings.TrimPrefix(line, ".bound"))
			v, err := strconv.ParseUint(arg, 0, 64)
			if err != nil || v == 0 {
				return nil, errf(ln+1, "bad .bound operand %q: want a positive trip count", arg)
			}
			pendingBound = v
		case strings.HasPrefix(line, ".word"):
			arg := strings.TrimSpace(strings.TrimPrefix(line, ".word"))
			v, err := parseUint32(arg)
			if err != nil {
				return nil, errf(ln+1, "bad .word operand %q: %v", arg, err)
			}
			items = append(items, item{line: ln + 1, isRaw: true, rawWord: v})
		case strings.HasPrefix(line, "."):
			return nil, errf(ln+1, "unknown directive %q", line)
		default:
			items = append(items, item{line: ln + 1, text: line, amenable: pendingAmenable, bound: pendingBound})
			pendingAmenable = false
			pendingBound = 0
		}
	}

	// Pass 2: encode.
	p := &Program{Labels: labels}
	for idx, it := range items {
		addr := mem.CodeBase + uint32(idx)*isa.InstBytes
		if it.isRaw {
			p.Image = appendWord(p.Image, it.rawWord)
			p.Source = append(p.Source, fmt.Sprintf(".word %#x", it.rawWord))
			p.Lines = append(p.Lines, it.line)
			continue
		}
		in, err := parseInstruction(it.text, it.line, addr, labels)
		if err != nil {
			return nil, err
		}
		w, err := isa.Encode(in)
		if err != nil {
			return nil, errf(it.line, "%v", err)
		}
		if it.amenable {
			p.Amenable = append(p.Amenable, addr)
		}
		if it.bound != 0 {
			if p.Bounds == nil {
				p.Bounds = make(map[uint32]uint64)
			}
			p.Bounds[addr] = it.bound
		}
		p.Image = appendWord(p.Image, uint32(w))
		p.Source = append(p.Source, it.text)
		p.Lines = append(p.Lines, it.line)
	}
	return p, nil
}

func appendWord(b []byte, w uint32) []byte {
	return append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == '.' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func parseUint32(s string) (uint32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		u, uerr := strconv.ParseUint(s, 0, 32)
		if uerr != nil {
			return 0, err
		}
		return uint32(u), nil
	}
	if v < -(1<<31) || v > (1<<32)-1 {
		return 0, fmt.Errorf("value %d out of 32-bit range", v)
	}
	return uint32(v), nil
}

var mnemonics = buildMnemonicTable()

func buildMnemonicTable() map[string]isa.Opcode {
	m := make(map[string]isa.Opcode, isa.NumOpcodes)
	for op := 0; op < isa.NumOpcodes; op++ {
		m[isa.Opcode(op).Name()] = isa.Opcode(op)
	}
	return m
}

// promoteImm maps a register-form opcode to its immediate form.
var promoteImm = map[isa.Opcode]isa.Opcode{
	isa.OpMov: isa.OpMovI,
	isa.OpAdd: isa.OpAddI,
	isa.OpSub: isa.OpSubI,
	isa.OpAnd: isa.OpAndI,
	isa.OpOrr: isa.OpOrrI,
	isa.OpEor: isa.OpEorI,
	isa.OpLsl: isa.OpLslI,
	isa.OpLsr: isa.OpLsrI,
	isa.OpAsr: isa.OpAsrI,
	isa.OpCmp: isa.OpCmpI,
}

// promoteRegOffset maps an immediate-offset memory opcode to its
// register-offset form.
var promoteRegOffset = map[isa.Opcode]isa.Opcode{
	isa.OpLdr:  isa.OpLdrX,
	isa.OpLdrh: isa.OpLdrhX,
	isa.OpLdrb: isa.OpLdrbX,
	isa.OpStr:  isa.OpStrX,
	isa.OpStrh: isa.OpStrhX,
	isa.OpStrb: isa.OpStrbX,
}

type operand struct {
	isReg   bool
	reg     isa.Reg
	isImm   bool
	imm     int64
	isLabel bool
	label   string
	isMem   bool
	base    isa.Reg
	memReg  isa.Reg // register offset, valid when memHasReg
	memOff  int64
	hasReg  bool // memory operand uses register offset
}

func parseReg(s string) (isa.Reg, bool) {
	switch strings.ToUpper(s) {
	case "SP":
		return isa.SP, true
	case "LR":
		return isa.LR, true
	case "PC":
		return isa.PC, true
	}
	up := strings.ToUpper(s)
	if len(up) >= 2 && up[0] == 'R' {
		if n, err := strconv.Atoi(up[1:]); err == nil && n >= 0 && n < isa.NumRegs {
			return isa.Reg(n), true
		}
	}
	return 0, false
}

func parseOperand(s string, line int) (operand, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return operand{}, errf(line, "empty operand")
	}
	if r, ok := parseReg(s); ok {
		return operand{isReg: true, reg: r}, nil
	}
	if strings.HasPrefix(s, "#") {
		body := s[1:]
		if v, err := strconv.ParseInt(body, 0, 64); err == nil {
			return operand{isImm: true, imm: v}, nil
		}
		if isIdent(body) {
			return operand{isLabel: true, label: body}, nil
		}
		return operand{}, errf(line, "bad immediate %q", s)
	}
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return operand{}, errf(line, "unterminated memory operand %q", s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		parts := splitOperands(inner)
		if len(parts) < 1 || len(parts) > 2 {
			return operand{}, errf(line, "bad memory operand %q", s)
		}
		base, ok := parseReg(parts[0])
		if !ok {
			return operand{}, errf(line, "bad base register %q", parts[0])
		}
		op := operand{isMem: true, base: base}
		if len(parts) == 2 {
			arg := strings.TrimSpace(parts[1])
			if r, ok := parseReg(arg); ok {
				op.hasReg = true
				op.memReg = r
			} else if strings.HasPrefix(arg, "#") {
				v, err := strconv.ParseInt(arg[1:], 0, 64)
				if err != nil {
					return operand{}, errf(line, "bad memory offset %q", arg)
				}
				op.memOff = v
			} else {
				return operand{}, errf(line, "bad memory offset %q", arg)
			}
		}
		return op, nil
	}
	if isIdent(s) {
		return operand{isLabel: true, label: s}, nil
	}
	return operand{}, errf(line, "unrecognized operand %q", s)
}

// splitOperands splits on commas that are not inside brackets.
func splitOperands(s string) []string {
	var parts []string
	depth := 0
	start := 0
	for i, r := range s {
		switch r {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if rest := strings.TrimSpace(s[start:]); rest != "" {
		parts = append(parts, rest)
	}
	return parts
}

func parseInstruction(text string, line int, addr uint32, labels map[string]uint32) (isa.Instruction, error) {
	fields := strings.SplitN(text, " ", 2)
	mn := strings.ToUpper(strings.TrimSpace(fields[0]))
	op, ok := mnemonics[mn]
	if !ok {
		return isa.Instruction{}, errf(line, "unknown mnemonic %q", mn)
	}
	var ops []operand
	if len(fields) == 2 {
		for _, part := range splitOperands(fields[1]) {
			o, err := parseOperand(part, line)
			if err != nil {
				return isa.Instruction{}, err
			}
			ops = append(ops, o)
		}
	}
	resolve := func(o operand) (uint32, error) {
		a, ok := labels[o.label]
		if !ok {
			return 0, errf(line, "undefined label %q", o.label)
		}
		return a, nil
	}

	in := isa.Instruction{Op: op}
	switch {
	case op == isa.OpNop || op == isa.OpHalt:
		if len(ops) != 0 {
			return in, errf(line, "%s takes no operands", mn)
		}
		return in, nil

	case op == isa.OpSkm:
		if len(ops) != 1 {
			return in, errf(line, "SKM takes one target operand")
		}
		switch {
		case ops[0].isLabel:
			a, err := resolve(ops[0])
			if err != nil {
				return in, err
			}
			in.Imm = int32(a)
		case ops[0].isImm:
			in.Imm = int32(ops[0].imm)
		default:
			return in, errf(line, "SKM target must be a label or immediate")
		}
		return in, nil

	case op == isa.OpBx:
		if len(ops) != 1 || !ops[0].isReg {
			return in, errf(line, "BX takes one register operand")
		}
		in.Rm = ops[0].reg
		return in, nil

	case op.IsBranch(): // B, BL, conditionals
		if len(ops) != 1 {
			return in, errf(line, "%s takes one target operand", mn)
		}
		switch {
		case ops[0].isLabel:
			a, err := resolve(ops[0])
			if err != nil {
				return in, err
			}
			in.Imm = int32(a) - int32(addr)
		case ops[0].isImm:
			in.Imm = int32(ops[0].imm)
		default:
			return in, errf(line, "%s target must be a label or immediate", mn)
		}
		return in, nil

	case op == isa.OpMovTI:
		if len(ops) != 2 || !ops[0].isReg || !ops[1].isImm {
			return in, errf(line, "MOVTI takes Rd, #imm")
		}
		in.Rd = ops[0].reg
		in.Imm = int32(ops[1].imm)
		return in, nil

	case op == isa.OpMov || op == isa.OpMovI:
		if len(ops) != 2 || !ops[0].isReg {
			return in, errf(line, "%s takes Rd and a source", mn)
		}
		in.Rd = ops[0].reg
		if ops[1].isImm {
			in.Op = isa.OpMovI
			in.Imm = int32(ops[1].imm)
		} else if ops[1].isReg {
			in.Op = isa.OpMov
			in.Rm = ops[1].reg
		} else {
			return in, errf(line, "%s source must be a register or immediate", mn)
		}
		return in, nil

	case op == isa.OpCmp || op == isa.OpCmpI:
		if len(ops) != 2 || !ops[0].isReg {
			return in, errf(line, "CMP takes Rn and a source")
		}
		in.Rn = ops[0].reg
		if ops[1].isImm {
			in.Op = isa.OpCmpI
			in.Imm = int32(ops[1].imm)
		} else if ops[1].isReg {
			in.Op = isa.OpCmp
			in.Rm = ops[1].reg
		} else {
			return in, errf(line, "CMP source must be a register or immediate")
		}
		return in, nil

	case op.ASPBits() != 0:
		if len(ops) != 3 || !ops[0].isReg || !ops[1].isReg || !ops[2].isImm {
			return in, errf(line, "%s takes Rd, Rm, #pos", mn)
		}
		in.Rd = ops[0].reg
		in.Rm = ops[1].reg
		in.Imm = int32(ops[2].imm)
		return in, nil

	case op.ASVLane() != 0:
		if len(ops) != 2 || !ops[0].isReg || !ops[1].isReg {
			return in, errf(line, "%s takes Rd, Rm", mn)
		}
		in.Rd = ops[0].reg
		in.Rm = ops[1].reg
		return in, nil

	case op == isa.OpMul:
		if len(ops) != 3 || !ops[0].isReg || !ops[1].isReg || !ops[2].isReg {
			return in, errf(line, "MUL takes Rd, Rn, Rm")
		}
		in.Rd, in.Rn, in.Rm = ops[0].reg, ops[1].reg, ops[2].reg
		return in, nil

	case op.IsLoad() || op.IsStore():
		if len(ops) != 2 || !ops[0].isReg || !ops[1].isMem {
			return in, errf(line, "%s takes Rd, [Rn, off]", mn)
		}
		in.Rd = ops[0].reg
		in.Rn = ops[1].base
		if ops[1].hasReg {
			x, ok := promoteRegOffset[op]
			if !ok {
				x = op // already an X form? X forms share parse path
				if !op.HasRm() {
					return in, errf(line, "%s does not take a register offset", mn)
				}
			}
			in.Op = x
			in.Rm = ops[1].memReg
		} else {
			if op.HasRm() {
				return in, errf(line, "%s requires a register offset", mn)
			}
			in.Imm = int32(ops[1].memOff)
		}
		return in, nil

	default: // three-operand ALU, register or immediate form
		if len(ops) != 3 || !ops[0].isReg || !ops[1].isReg {
			return in, errf(line, "%s takes Rd, Rn, src", mn)
		}
		in.Rd = ops[0].reg
		in.Rn = ops[1].reg
		if ops[2].isReg {
			if op.HasRm() {
				in.Rm = ops[2].reg
				return in, nil
			}
			return in, errf(line, "%s takes an immediate source", mn)
		}
		if ops[2].isImm {
			if op.HasRm() {
				p, ok := promoteImm[op]
				if !ok {
					return in, errf(line, "%s has no immediate form", mn)
				}
				in.Op = p
			}
			in.Imm = int32(ops[2].imm)
			return in, nil
		}
		return in, errf(line, "%s source must be a register or immediate", mn)
	}
}
