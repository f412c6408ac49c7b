package cpu

import "whatsnext/internal/isa"

// ReferenceStep exposes the reference interpreter (refStep) to the external
// cpu_test package.
func (c *CPU) ReferenceStep() (Cost, error) { return c.refStep() }

// FusedInstructions reports how many instructions Run has retired through
// fused superblocks rather than one slot at a time.
func (c *CPU) FusedInstructions() uint64 { return c.sbInstrs }

// RunUntil is Run with an empty translation: every instruction runs through
// its slot's closure one at a time, with the same stop reasons, overshoot
// bound, Stats and cost records. The differential tests hold Run against it
// to show that fusing blocks changes nothing.
func (c *CPU) RunUntil(budget uint64, costs *[]Cost) (BatchResult, error) {
	return c.run(budget, costs, c.BeforeStore != nil, false)
}

// TranslationBlocks returns the [start, end) instruction-address extent of
// every fused superblock in ascending order, the end covering the fused
// terminator when present. The CFG-boundary test pins these against
// wncheck's exported blocks.
func (c *CPU) TranslationBlocks() ([][2]uint32, error) {
	if err := c.ensureDecodeCache(); err != nil {
		return nil, err
	}
	if c.trans == nil {
		c.buildTranslation()
	}
	var out [][2]uint32
	for _, tb := range c.trans.blockAt {
		if tb == nil {
			continue
		}
		end := tb.endPC
		if tb.term != nil {
			end += isa.InstBytes
		}
		out = append(out, [2]uint32{tb.startPC, end})
	}
	return out, nil
}
