package energy

import "math"

// Test-side observers of a Supply's state. Production code reads Headroom
// and the cycle totals; the tests also check the physics through the
// capacitor voltage, the on/off state and the simulated time.

// Voltage returns the current capacitor voltage.
func (s *Supply) Voltage() float64 {
	return math.Sqrt(2 * s.energy / s.cfg.CapacitanceF)
}

// Powered reports whether the device is currently on.
func (s *Supply) Powered() bool { return s.powered }

// Now returns the simulated time in seconds.
func (s *Supply) Now() float64 {
	return float64(s.CyclesOn+s.CyclesOff) * s.cycleSec
}
