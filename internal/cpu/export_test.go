package cpu

import "whatsnext/internal/isa"

// ReferenceStep exposes the reference interpreter (refStep) to the external
// cpu_test package.
func (c *CPU) ReferenceStep() (Cost, error) { return c.refStep() }

// CountSlotRuns wraps the closure of every decode-cache slot in a counter
// of the instructions Run executes one slot at a time, and returns the
// counter. It builds the translation first, so fused blocks keep the
// closures they were built from and are not counted. HALT and SKM slots
// have no closure: Run stops right after each (StopHalt, StopSkim), so the
// caller counts those stops.
func (c *CPU) CountSlotRuns() (*uint64, error) {
	if err := c.ensureDecodeCache(); err != nil {
		return nil, err
	}
	if c.trans == nil {
		c.buildTranslation()
	}
	n := new(uint64)
	for i := range c.decodeCache {
		d := &c.decodeCache[i]
		if exec := d.exec; exec != nil {
			d.exec = func(c *CPU) bool { *n++; return exec(c) }
		}
		if term := d.term; term != nil {
			d.term = func(c *CPU) (uint32, uint32) { *n++; return term(c) }
		}
	}
	return n, nil
}

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
