package faultinject

import (
	"reflect"
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/mem"
)

// TestGoldenRunRecordsPastCap: under the default guard a golden run longer
// than recordCap stops recording, finishes, and is re-run recording once
// it is known to halt. It must return what a run under an explicit budget
// returns, which records in one pass.
func TestGoldenRunRecordsPastCap(t *testing.T) {
	defer func(c uint64) { recordCap = c }(recordCap)
	recordCap = 64
	p, err := asm.Assemble(`
	MOVI R1, #200
loop:
	SUBIS R1, R1, #1
	BNE loop
	SKM loop
	HALT
`)
	if err != nil {
		t.Fatal(err)
	}
	target := FromProgram("loop", p)
	target.Mem = mem.Config{CodeBytes: 1 << 10, DataBytes: 1 << 10, SRAMBytes: 1 << 10}
	cfg := Config{}
	for _, pcs := range []bool{false, true} {
		got, err := goldenRun(target, cfg, nil, true, pcs)
		if err != nil {
			t.Fatal(err)
		}
		budgeted := cfg
		budgeted.Budget = 1 << 20
		want, err := goldenRun(target, budgeted, nil, true, pcs)
		if err != nil {
			t.Fatal(err)
		}
		if got.stats.Instructions <= 2*recordCap {
			t.Fatalf("golden run of %d instructions is within twice the recording cap", got.stats.Instructions)
		}
		if uint64(len(got.costs)) != got.stats.Instructions || !reflect.DeepEqual(got, want) {
			t.Errorf("pcs %v: %d costs for %d instructions; default-guard run differs from the budgeted one",
				pcs, len(got.costs), got.stats.Instructions)
		}
	}
}
