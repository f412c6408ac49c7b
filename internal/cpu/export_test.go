package cpu

// ReferenceStep exposes the reference interpreter (refStep) to the external
// cpu_test package.
func (c *CPU) ReferenceStep() (Cost, error) { return c.refStep() }
