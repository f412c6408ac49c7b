// Package demotest is test support: the checker skips its functions, and a
// binary that links it fails the gate.
package demotest

// Helper is never reached, and the checker does not report it.
func Helper() int { return 6 }
