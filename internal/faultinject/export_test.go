package faultinject

// RunNaive and CrossValidateFromReset expose the from-reset reference
// engines (naive_test.go) to the external faultinject_test package.
var (
	RunNaive               = runNaive
	CrossValidateFromReset = crossValidateFromReset
)
