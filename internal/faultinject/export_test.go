package faultinject

// RunNaive exposes the reference injection engine (runNaive) to the
// external faultinject_test package.
var RunNaive = runNaive
