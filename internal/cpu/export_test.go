package cpu

// ReferenceStep exposes the reference interpreter (refStep) to the external
// cpu_test package.
func (c *CPU) ReferenceStep() (Cost, error) { return c.refStep() }

// FusedInstructions reports how many instructions Run has retired through
// fused superblocks rather than the interpreter.
func (c *CPU) FusedInstructions() uint64 { return c.sbInstrs }
