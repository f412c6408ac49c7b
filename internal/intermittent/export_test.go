package intermittent

import "whatsnext/internal/cpu"

// BuildDevice, RunReference and the test programs and traces below expose
// the internal test fixtures and the per-instruction reference loop
// (reference_test.go) to the external intermittent_test package, whose
// tests also run the policytest witnesses.
var (
	BuildDevice     = buildDevice
	RunReference    = runReference
	Weak            = weak
	AccumProgram    = accumProgram
	WatchdogProgram = watchdogProgram
)

// CostLogCap is the runner's cost-log capacity; CostLog exposes the log.
const CostLogCap = costLogCap

func CostLog(r *Runner) []cpu.Cost { return r.costs }
