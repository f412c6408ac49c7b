package wncheck

import (
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// regVal is the constant-propagation lattice for one register: unknown or a
// known 32-bit constant.
type regVal struct {
	known bool
	v     uint32
}

// readInfo records one outstanding read of a non-volatile word.
type readInfo struct {
	idx int // instruction index of the earliest read
	// tainted is set when an amenable (anytime) instruction executes while
	// the read is outstanding: overwriting the word then makes replayed
	// anytime work consume a different input, so the interval is not
	// idempotent in value — a checkpoint cannot repair it.
	tainted bool
}

// dfState is the forward abstract state at a program point.
type dfState struct {
	regs [isa.NumRegs]regVal
	// reads maps word-aligned non-volatile data addresses that were read
	// (before being written) since the last skim point to information about
	// the earliest such read. May-analysis: merged by union.
	reads map[uint32]readInfo
	// written holds word addresses stored to since the last skim point.
	// Must-analysis (merged by intersection): a read only escapes the
	// read-first set if the word was written on every incoming path.
	written map[uint32]bool
	// armed is true when a SKM has executed on every path from entry.
	armed bool
	// amen is true when an amenable instruction may have executed since
	// the last skim point.
	amen bool
	// sramStores maps word-aligned SRAM addresses that were stored at a
	// statically known address to the earliest store site. Unlike reads,
	// this set is never cleared: no commit boundary — skim point or
	// checkpoint — persists SRAM, so a stored volatile word stays
	// vulnerable until the program halts. nil unless Options.Crash.
	sramStores map[uint32]int
	// inputReads maps word-aligned input-location addresses to the earliest
	// read site. Never cleared — not even by a skim point: the external
	// world advances across reboots regardless of commit boundaries, so a
	// sampled input stays repeated-read-hazardous until the program halts.
	// nil unless Options.Crash and Options.Input are both set.
	inputReads map[uint32]int
	// prov tracks, per register, the non-volatile word the register's value
	// was loaded (or derived) from, for the read-modify-write rule (WN108).
	// Cleared at skim points: a commit boundary ends the re-execution
	// interval the rule reasons about. Only maintained under Options.Crash.
	prov [isa.NumRegs]provVal
	// valid marks states that have been reached at least once.
	valid bool
}

// provVal is the value-provenance lattice for one register: unknown, or
// "derived from the NV word at word, first loaded at loadIdx".
type provVal struct {
	word    uint32
	loadIdx int
	known   bool
}

func newEntryState(cfg mem.Config) dfState {
	s := dfState{
		reads:   map[uint32]readInfo{},
		written: map[uint32]bool{},
		valid:   true,
	}
	// The boot state pins SP to the top of SRAM (see cpu.New).
	s.regs[isa.SP] = regVal{known: true, v: mem.SRAMBase + uint32(cfg.SRAMBytes)}
	return s
}

func (s *dfState) clone() dfState {
	out := *s
	out.reads = make(map[uint32]readInfo, len(s.reads))
	for k, v := range s.reads {
		out.reads[k] = v
	}
	out.written = make(map[uint32]bool, len(s.written))
	for k := range s.written {
		out.written[k] = true
	}
	if s.sramStores != nil {
		out.sramStores = make(map[uint32]int, len(s.sramStores))
		for k, v := range s.sramStores {
			out.sramStores[k] = v
		}
	}
	if s.inputReads != nil {
		out.inputReads = make(map[uint32]int, len(s.inputReads))
		for k, v := range s.inputReads {
			out.inputReads[k] = v
		}
	}
	return out
}

// merge joins another state into s, returning true when s changed.
func (s *dfState) merge(o *dfState) bool {
	if !o.valid {
		return false
	}
	if !s.valid {
		*s = o.clone()
		return true
	}
	changed := false
	for r := range s.regs {
		if s.regs[r].known && (!o.regs[r].known || o.regs[r].v != s.regs[r].v) {
			s.regs[r] = regVal{}
			changed = true
		}
	}
	for a, ri := range o.reads {
		cur, ok := s.reads[a]
		if !ok {
			s.reads[a] = ri
			changed = true
			continue
		}
		next := cur
		if ri.idx < next.idx {
			next.idx = ri.idx
		}
		if ri.tainted {
			next.tainted = true
		}
		if next != cur {
			s.reads[a] = next
			changed = true
		}
	}
	for a := range s.written {
		if !o.written[a] {
			delete(s.written, a)
			changed = true
		}
	}
	for a, oi := range o.sramStores {
		if s.sramStores == nil {
			s.sramStores = map[uint32]int{}
		}
		cur, ok := s.sramStores[a]
		if !ok || oi < cur {
			s.sramStores[a] = oi
			changed = true
		}
	}
	for a, oi := range o.inputReads {
		if s.inputReads == nil {
			s.inputReads = map[uint32]int{}
		}
		cur, ok := s.inputReads[a]
		if !ok || oi < cur {
			s.inputReads[a] = oi
			changed = true
		}
	}
	for r := range s.prov {
		p, q := s.prov[r], o.prov[r]
		if !p.known {
			continue
		}
		switch {
		case !q.known || q.word != p.word:
			s.prov[r] = provVal{}
			changed = true
		case q.loadIdx < p.loadIdx:
			s.prov[r].loadIdx = q.loadIdx
			changed = true
		}
	}
	if s.armed && !o.armed {
		s.armed = false
		changed = true
	}
	if !s.amen && o.amen {
		s.amen = true
		changed = true
	}
	return changed
}

// effAddr resolves the effective address of a memory instruction when the
// operands are statically known.
func (s *dfState) effAddr(in isa.Instruction) (uint32, bool) {
	base := s.regs[in.Rn]
	if !base.known {
		return 0, false
	}
	if in.Op.HasRm() {
		off := s.regs[in.Rm]
		if !off.known {
			return 0, false
		}
		return base.v + off.v, true
	}
	return base.v + uint32(in.Imm), true
}

// coveredWords mirrors mem.coveredWords: the first and last word-aligned
// addresses a size-byte access touches. Callers walk first..last in 4-byte
// strides, so a single-word access is processed exactly once (the old
// two-element form visited it twice).
func coveredWords(addr uint32, size int) (first, last uint32) {
	first = addr &^ 3
	last = (addr + uint32(size) - 1) &^ 3
	return first, last
}

// step advances the abstract state across one instruction. When check is
// true, per-instruction diagnostics are reported as side effects.
func (c *checker) step(s *dfState, idx int, check bool) {
	ins := c.ins[idx]
	if !ins.ok {
		if check {
			c.report(CodeIllegalOp, Error, idx,
				"word %#08x does not decode to a WN instruction", ins.word)
		}
		return
	}
	in := ins.in
	op := in.Op

	if check {
		c.checkInstr(s, idx)
	}

	// Memory effects come first: loads and stores read their operands
	// before the destination register changes.
	memAddr, memOK := uint32(0), false
	if op.IsLoad() || op.IsStore() {
		if addr, ok := s.effAddr(in); ok {
			memAddr, memOK = addr, true
			size := op.AccessBytes()
			dataEnd := uint32(mem.DataBase) + uint32(c.opts.Mem.DataBytes)
			inData := addr >= mem.DataBase && addr < dataEnd
			if op.IsLoad() && inData {
				first, last := coveredWords(addr, size)
				for w := first; w <= last; w += 4 {
					if !s.written[w] {
						if _, ok := s.reads[w]; !ok {
							s.reads[w] = readInfo{idx: idx}
						}
					}
				}
			}
			if op.IsStore() && inData {
				first, last := coveredWords(addr, size)
				if check {
					for w := first; w <= last; w += 4 {
						if ri, ok := s.reads[w]; ok {
							c.reportWAR(idx, ri, w)
						}
						if c.opts.Crash {
							if p := s.prov[in.Rd]; p.known && p.word == w {
								c.reportRMW(idx, p, w)
							}
						}
					}
				}
				for w := first; w <= last; w += 4 {
					s.written[w] = true
				}
			}
			if c.opts.Crash {
				c.stepCrash(s, idx, in, addr, size, check)
				if op.IsLoad() && len(c.opts.Input) > 0 {
					c.stepInput(s, idx, addr, size, check)
				}
			}
		} else if check && c.opts.Crash && op.IsLoad() {
			// The address is statically unknown: constant propagation
			// cannot feed the WN101/WN102 WAR tracking, so follow the
			// read→write chain symbolically instead (WN106).
			c.warCrossFrom(idx)
		}
	}

	switch op {
	case isa.OpNop, isa.OpHalt, isa.OpCmp, isa.OpCmpI,
		isa.OpStr, isa.OpStrh, isa.OpStrb, isa.OpStrX, isa.OpStrhX, isa.OpStrbX,
		isa.OpB, isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBgt,
		isa.OpBle, isa.OpBlo, isa.OpBhs, isa.OpBx:
		// No register state changes.

	case isa.OpBl:
		// Assume the callee may clobber every register.
		for r := range s.regs {
			s.regs[r] = regVal{}
		}

	case isa.OpSkm:
		s.armed = true
		s.amen = false
		s.reads = map[uint32]readInfo{}
		s.written = map[uint32]bool{}

	case isa.OpMov:
		s.regs[in.Rd] = s.regs[in.Rm]
	case isa.OpMovI:
		s.regs[in.Rd] = regVal{known: true, v: uint32(in.Imm)}
	case isa.OpMovTI:
		if d := s.regs[in.Rd]; d.known {
			s.regs[in.Rd] = regVal{known: true, v: d.v&0xFFFF | uint32(in.Imm)<<16}
		} else {
			s.regs[in.Rd] = regVal{}
		}

	case isa.OpLdr, isa.OpLdrh, isa.OpLdrb, isa.OpLdrX, isa.OpLdrhX, isa.OpLdrbX:
		// Memory contents are not modeled.
		s.regs[in.Rd] = regVal{}

	case isa.OpMul, isa.OpMulASP1, isa.OpMulASP2, isa.OpMulASP3,
		isa.OpMulASP4, isa.OpMulASP8,
		isa.OpAddASV4, isa.OpAddASV8, isa.OpAddASV16,
		isa.OpSubASV4, isa.OpSubASV8, isa.OpSubASV16:
		// Products and lane arithmetic never feed addresses in well-formed
		// code; treat the result as unknown.
		s.regs[in.Rd] = regVal{}

	default:
		s.regs[in.Rd] = c.evalALU(s, in)
	}

	if c.opts.Crash {
		c.stepProv(s, in, idx, memAddr, memOK)
	}

	if ins.amen {
		s.amen = true
		// Anytime work consumed the outstanding reads: overwriting any of
		// those words before the next skim point breaks value-idempotency.
		for w, ri := range s.reads {
			if !ri.tainted {
				ri.tainted = true
				s.reads[w] = ri
			}
		}
	}
}

// stepProv advances the per-register value-provenance used by the
// read-modify-write rule (WN108). A load from a known non-volatile data word
// tags the destination with that word; MOV and ALU results inherit the tag
// from any tagged source operand; everything else clears it. A skim point
// clears all tags — the commit boundary ends the re-execution interval the
// rule reasons about — and a call clears them because the callee's effects
// are unmodeled.
func (c *checker) stepProv(s *dfState, in isa.Instruction, idx int, memAddr uint32, memOK bool) {
	op := in.Op
	switch {
	case op == isa.OpBl:
		for r := range s.prov {
			s.prov[r] = provVal{}
		}
	case op == isa.OpSkm:
		for r := range s.prov {
			s.prov[r] = provVal{}
		}
	case op.IsLoad():
		s.prov[in.Rd] = provVal{}
		if memOK && locClassOf(memAddr, c.opts.Mem, c.opts.Input) == ClassNV {
			s.prov[in.Rd] = provVal{word: memAddr &^ 3, loadIdx: idx, known: true}
		}
	case op == isa.OpMov:
		s.prov[in.Rd] = s.prov[in.Rm]
	default:
		d, ok := defOf(in)
		if !ok {
			return
		}
		next := provVal{}
		if op != isa.OpMovI && op != isa.OpMovTI {
			for _, u := range usesOf(in) {
				if p := s.prov[u]; p.known {
					next = p
					break
				}
			}
		}
		s.prov[d] = next
	}
}

// evalALU folds two-input ALU operations over known constants.
func (c *checker) evalALU(s *dfState, in isa.Instruction) regVal {
	a := s.regs[in.Rn]
	var b regVal
	if in.Op.HasRm() {
		b = s.regs[in.Rm]
	} else {
		b = regVal{known: true, v: uint32(in.Imm)}
	}
	if !a.known || !b.known {
		return regVal{}
	}
	var v uint32
	switch in.Op {
	case isa.OpAdd, isa.OpAddI:
		v = a.v + b.v
	case isa.OpSub, isa.OpSubI, isa.OpSubIS:
		v = a.v - b.v
	case isa.OpAnd, isa.OpAndI:
		v = a.v & b.v
	case isa.OpOrr, isa.OpOrrI:
		v = a.v | b.v
	case isa.OpEor, isa.OpEorI:
		v = a.v ^ b.v
	case isa.OpLsl, isa.OpLslI:
		v = isa.ShiftL(a.v, b.v)
	case isa.OpLsr, isa.OpLsrI:
		v = isa.ShiftR(a.v, b.v)
	case isa.OpAsr, isa.OpAsrI:
		v = isa.ShiftAR(a.v, b.v)
	default:
		return regVal{}
	}
	return regVal{known: true, v: v}
}

// runForward computes the converged in-state of every reachable block, then
// replays each block once with checking enabled.
func (c *checker) runForward() {
	if len(c.blocks) == 0 {
		return
	}
	c.inStates = make([]dfState, len(c.blocks))
	c.inStates[0] = newEntryState(c.opts.Mem)

	work := []int{0}
	inWork := make([]bool, len(c.blocks))
	inWork[0] = true
	for iter := 0; len(work) > 0; iter++ {
		if iter > 100*len(c.blocks)+1000 {
			break // fixpoint safety net; lattice descent bounds this anyway
		}
		id := work[0]
		work = work[1:]
		inWork[id] = false
		b := c.blocks[id]
		s := c.inStates[id].clone()
		for i := b.start; i < b.end; i++ {
			c.step(&s, i, false)
		}
		for _, succ := range b.succs {
			if c.inStates[succ].merge(&s) && !inWork[succ] {
				work = append(work, succ)
				inWork[succ] = true
			}
		}
	}

	for _, b := range c.blocks {
		if !b.reachable || !c.inStates[b.id].valid {
			continue
		}
		s := c.inStates[b.id].clone()
		for i := b.start; i < b.end; i++ {
			c.step(&s, i, true)
		}
	}
}

func (c *checker) reportWAR(storeIdx int, ri readInfo, word uint32) {
	readLoc := c.siteRef(ri.idx)
	if ri.tainted {
		c.report(CodeWARAmenable, Error, storeIdx,
			"non-volatile word %#08x is read (%s), consumed by anytime work, and overwritten with no skim point in between; replaying the interval after a power failure re-runs the anytime work on the overwritten value", word, readLoc)
	} else {
		c.report(CodeWARPlain, Info, storeIdx,
			"non-volatile word %#08x is read (%s) and overwritten with no skim point in between; the Clank runtime forces a checkpoint before this store (a cost, not a safety issue)", word, readLoc)
	}
}
