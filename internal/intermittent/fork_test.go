package intermittent

import (
	"bytes"
	"testing"

	"whatsnext/internal/energy"
	"whatsnext/internal/mem"
)

// forkProgram is accumProgram with a volatile word: it parks the pass
// count in SRAM before the loop and copies it to SUM[64] at the end, so an
// outage that reached the wrong device's SRAM shows in NV data.
const forkProgram = `
	MOVI R11, #0
	MOVTI R11, #8192    ; scratch word at the base of SRAM
	MOVI R10, #96
	STR R10, [R11, #0]
outer:
	MOVI R0, #0
	MOVTI R0, #4096
	MOVI R1, #0
loop:
	LDR R2, [R0, #0]
	ADD R2, R2, R1
	STR R2, [R0, #0]
	ADDI R0, R0, #4
	ADDI R1, R1, #1
	CMPI R1, #64
	BLT loop
	SUBIS R10, R10, #1
	BNE outer
	LDR R3, [R11, #0]
	STR R3, [R0, #0]    ; SUM[64]
	HALT
`

// TestForkDoesNotAlias forks each production policy mid-run, fails only
// the fork, and runs the fork to halt before the parent. If the fork shared
// any state with its parent (checkpoint, watchdog, pending overhead, store
// hook, undo log), one of the two would drift from its unforked twin: the
// parent from a twin that never forked, the fork from a twin that took the
// same failure at the same boundary. forkProgram keeps storing to NV data
// after the fork, so the store hooks and the undo log run on both sides.
func TestForkDoesNotAlias(t *testing.T) {
	const prefix = 20_000 // active cycles before the fork
	// atBoundary builds a device and runs it to the first boundary past
	// prefix cycles.
	atBoundary := func(t *testing.T, mk func() Policy) *Runner {
		r := buildDevice(t, forkProgram, mk(), ample())
		r.MaxCycles = prefix
		if _, err := r.RunToHalt(); err != ErrCycleBudget {
			t.Fatalf("prefix run: err = %v, want ErrCycleBudget", err)
		}
		r.MaxCycles = 0
		return r
	}
	toHalt := func(t *testing.T, r *Runner) (Result, []byte) {
		res, err := r.RunToHalt()
		if err != nil || !res.Halted {
			t.Fatalf("run to halt: %+v, %v", res, err)
		}
		data := make([]byte, 65*4)
		if err := r.Mem.ReadData(mem.DataBase, data); err != nil {
			t.Fatal(err)
		}
		return res, data
	}
	for name, mk := range policyMakers {
		t.Run(name, func(t *testing.T) {
			parent := atBoundary(t, mk)
			m := parent.Mem.Clone()
			fork := parent.Fork(parent.CPU.Fork(m), m, energy.NewSupply(energy.DefaultDeviceConfig(), ample()))
			fork.ForceFailure()
			_, forkData := toHalt(t, fork)
			parentRes, parentData := toHalt(t, parent)

			twin := atBoundary(t, mk)
			twinRes, twinData := toHalt(t, twin)
			if parentRes != twinRes || !bytes.Equal(parentData, twinData) {
				t.Errorf("parent drifted from its unforked twin:\nparent %+v\ntwin   %+v", parentRes, twinRes)
			}

			failed := atBoundary(t, mk)
			failed.ForceFailure()
			_, failedData := toHalt(t, failed)
			if got, want := fork.Policy.Checkpoints(), failed.Policy.Checkpoints(); got != want || !bytes.Equal(forkData, failedData) {
				t.Errorf("fork drifted from its failed twin: %d checkpoints, want %d; NV data equal: %v",
					got, want, bytes.Equal(forkData, failedData))
			}
			checkAccum(t, fork.Mem)
		})
	}
}
