package wncheck

import (
	"whatsnext/internal/asm"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// CFGBlock is one basic block of an image's control-flow graph in address
// form: instructions [Start, End) at InstBytes granularity, plus the indices
// of the successor blocks in CFG.Blocks() order. Blocks are emitted in
// ascending address order, so block i covers the instructions between
// Blocks()[i].Start and Blocks()[i].End.
type CFGBlock struct {
	Start uint32 // address of the block's first instruction
	End   uint32 // one past the last instruction's address
	Succs []int  // successor block indices; empty for exits (HALT, BX, fault)
	// FallsOff marks a block whose fall-through leaves the decoded image.
	FallsOff bool
}

// CFG is the public form of the per-image control-flow graph the checker
// builds. It is the single source of block extents for every consumer: the
// static analyses derive it internally during Check, and the CPU's
// superblock translation backend requests it through ImageCFG so translated
// block boundaries can never drift from the verifier's.
type CFG struct {
	blocks []CFGBlock
}

// Blocks returns the basic blocks in ascending address order. The returned
// slice is owned by the CFG; callers must not mutate it.
func (g *CFG) Blocks() []CFGBlock { return g.blocks }

// ImageCFG decodes a raw program image and returns its control-flow graph:
// leaders at the entry, at every branch target, and after every terminator
// (branches, HALT, undecodable words), exactly as the checker's analyses see
// it. An empty image yields an empty CFG.
func ImageCFG(image []byte) *CFG {
	c := &checker{prog: &asm.Program{Image: image}}
	c.decode()
	c.buildCFG()
	return exportCFG(c)
}

// exportCFG converts the checker's internal block list to the public form.
func exportCFG(c *checker) *CFG {
	g := &CFG{}
	for _, b := range c.blocks {
		g.blocks = append(g.blocks, CFGBlock{
			Start:    mem.CodeBase + uint32(b.start*isa.InstBytes),
			End:      mem.CodeBase + uint32(b.end*isa.InstBytes),
			Succs:    append([]int(nil), b.succs...),
			FallsOff: b.fallsOff,
		})
	}
	return g
}
