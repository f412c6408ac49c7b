package intermittent

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
