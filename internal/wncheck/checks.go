package wncheck

import (
	"fmt"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

func lineRef(line int) string {
	if line <= 0 {
		return ""
	}
	return fmt.Sprintf("line %d", line)
}

func addrRef(addr uint32) string { return fmt.Sprintf("%#08x", addr) }

// siteRef names an instruction by source line when a line table exists,
// falling back to its address.
func (c *checker) siteRef(idx int) string {
	if idx < len(c.prog.Lines) {
		if r := lineRef(c.prog.Lines[idx]); r != "" {
			return r
		}
	}
	return addrRef(mem.CodeBase + uint32(idx*isa.InstBytes))
}

// checkInstr runs the per-instruction rules that need the abstract state at
// the instruction. Called only for reachable, decodable instructions.
func (c *checker) checkInstr(s *dfState, idx int) {
	in := c.ins[idx].in
	op := in.Op

	// WN301: MUL_ASP position must keep the shifted product inside the
	// 32-bit result.
	if bits := op.ASPBits(); bits > 0 {
		if uint(in.Imm)*bits >= 32 {
			c.report(CodeASPPosition, Error, idx,
				"%s position %d shifts the product by %d bits; subword position must satisfy bits*pos < 32",
				op.Name(), in.Imm, uint(in.Imm)*bits)
		}
	}

	// WN304: anytime instructions manipulate data values; SP, LR and PC
	// are not valid operands.
	if op.ASPBits() > 0 || op.ASVLane() > 0 {
		for _, r := range [...]isa.Reg{in.Rd, in.Rm} {
			if r >= isa.SP {
				c.report(CodeAnytimeReg, Error, idx,
					"anytime instruction %s operates on %s; ASP/ASV operands must be general-purpose registers", op.Name(), r)
				break
			}
		}
	}

	// WN402: branch targets must land on an instruction inside the image.
	if op.IsBranch() && op != isa.OpBx {
		target := c.ins[idx].addr + uint32(in.Imm)
		switch {
		case target%isa.InstBytes != 0:
			c.report(CodeBranchRange, Error, idx,
				"branch target %#08x is not instruction-aligned", target)
		case c.branchTargetIndex(idx) < 0:
			c.report(CodeBranchRange, Error, idx,
				"branch target %#08x is outside the program image (%d instructions)", target, len(c.ins))
		}
	}

	// WN213: skim targets are absolute; they must name an instruction in
	// the image and lie past the SKM that arms them (skim points commit
	// forward progress, they never rewind it).
	if op == isa.OpSkm {
		target := uint32(in.Imm)
		imgEnd := mem.CodeBase + uint32(len(c.ins)*isa.InstBytes)
		switch {
		case target%isa.InstBytes != 0:
			c.report(CodeSkimTarget, Error, idx,
				"skim target %#08x is not instruction-aligned", target)
		case target < mem.CodeBase || target >= imgEnd:
			c.report(CodeSkimTarget, Error, idx,
				"skim target %#08x is outside the program image", target)
		case target <= c.ins[idx].addr:
			c.report(CodeSkimTarget, Error, idx,
				"skim target %#08x does not advance past the skim point at %#08x", target, c.ins[idx].addr)
		}
	}

	// Memory bounds and alignment at statically known addresses.
	if op.IsLoad() || op.IsStore() {
		addr, ok := s.effAddr(in)
		if !ok {
			return
		}
		size := op.AccessBytes()
		kind := "load"
		if op.IsStore() {
			kind = "store"
		}
		region, regionEnd := c.region(addr)
		switch {
		case region == "":
			c.report(CodeOOBAccess, Error, idx,
				"%d-byte %s at %#08x is outside every memory region", size, kind, addr)
			return
		case addr+uint32(size) > regionEnd:
			c.report(CodeOOBAccess, Error, idx,
				"%d-byte %s at %#08x runs past the end of the %s region", size, kind, addr, region)
			return
		}
		if size > 1 && addr%uint32(size) != 0 {
			c.report(CodeMisaligned, Error, idx,
				"%d-byte %s at %#08x is misaligned; subword-major planes and arrays are %d-byte aligned", size, kind, addr, size)
		}
		if op.IsStore() && region == "code" {
			c.report(CodeCodeWrite, Warning, idx,
				"store into instruction memory at %#08x", addr)
		}
	}
}

// region names the memory region containing addr and returns its end.
func (c *checker) region(addr uint32) (string, uint32) {
	cfg := c.opts.Mem
	switch {
	case addr >= mem.CodeBase && addr < mem.CodeBase+uint32(cfg.CodeBytes):
		return "code", mem.CodeBase + uint32(cfg.CodeBytes)
	case addr >= mem.DataBase && addr < mem.DataBase+uint32(cfg.DataBytes):
		return "data", mem.DataBase + uint32(cfg.DataBytes)
	case addr >= mem.SRAMBase && addr < mem.SRAMBase+uint32(cfg.SRAMBytes):
		return "sram", mem.SRAMBase + uint32(cfg.SRAMBytes)
	}
	return "", 0
}

// checkBlocks runs the whole-CFG rules: unreachable code, execution falling
// off the image, and the skim-placement checks.
func (c *checker) checkBlocks() {
	for _, b := range c.blocks {
		if !b.reachable {
			c.report(CodeUnreachable, Warning, b.start, "unreachable code")
			continue
		}
		if b.fallsOff {
			c.report(CodeMissingHalt, Error, b.end-1,
				"execution can run off the end of the program image (missing HALT or branch)")
		}
	}

	skimChecks := false
	switch c.opts.Skim {
	case SkimRequire:
		skimChecks = true
	case SkimAuto:
		skimChecks = c.hasSkim()
	}
	if !skimChecks {
		return
	}

	// WN211: every loop that performs anytime work must be covered by a
	// skim point — either one armed on every path into the loop, or one
	// reachable from the loop so the result can still be committed.
	for _, l := range c.loops {
		head := c.blocks[l.head]
		if !head.reachable {
			continue
		}
		amen := false
		for _, id := range l.blocks {
			b := c.blocks[id]
			for i := b.start; i < b.end; i++ {
				if c.ins[i].amen {
					amen = true
				}
			}
		}
		if !amen {
			continue
		}
		if c.inStates[l.head].valid && c.inStates[l.head].armed {
			continue
		}
		if c.reachesSkim(l.head) {
			continue
		}
		c.report(CodeSkimMissing, Error, head.start,
			"loop at %#08x contains anytime (amenable) instructions but no skim point is armed on entry or reachable from the loop", c.ins[head.start].addr)
	}

	// WN212: a skim point must be reachable from some amenable
	// instruction — otherwise there is no anytime result to commit.
	justified := c.skimJustified()
	for _, b := range c.blocks {
		for i := b.start; i < b.end; i++ {
			if c.ins[i].ok && c.ins[i].in.Op == isa.OpSkm && !justified[i] {
				c.report(CodeSkimOrphan, Warning, i,
					"skim point is not reachable from any amenable instruction; there is no anytime result to commit")
			}
		}
	}
}

// skimJustified marks every instruction index reachable from (strictly
// after) some amenable instruction.
func (c *checker) skimJustified() map[int]bool {
	after := map[int]bool{}    // instruction indexes executed after amenable work
	blockAll := map[int]bool{} // block ids fully after amenable work
	var stack []int
	for _, b := range c.blocks {
		for i := b.start; i < b.end; i++ {
			if !c.ins[i].amen {
				continue
			}
			// The rest of this block runs after the amenable instruction.
			for j := i; j < b.end; j++ {
				after[j] = true
			}
			stack = append(stack, b.succs...)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blockAll[id] {
			continue
		}
		blockAll[id] = true
		b := c.blocks[id]
		for i := b.start; i < b.end; i++ {
			after[i] = true
		}
		stack = append(stack, b.succs...)
	}
	return after
}
