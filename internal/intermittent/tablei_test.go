package intermittent

import (
	"bytes"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/mem"
	"whatsnext/internal/workloads"
)

// TestBatchedIntermittentMatchesReference is the end-to-end differential
// under power failures: every Table I kernel's 4-bit WN build runs on all
// three processor types (Clank checkpointing, NVP backup-every-cycle and
// the undo log) over the seed-42 Wi-Fi harvest trace, once through the
// per-instruction reference loop and once through RunToHalt. The Results —
// cycles on and off, instructions, outages, checkpoints, energy drawn — and
// the final data memory must match exactly.
func TestBatchedIntermittentMatchesReference(t *testing.T) {
	procs := []struct {
		name string
		mk   func() Policy
	}{
		{"clank", func() Policy { return NewClank(DefaultClankConfig()) }},
		{"nvp", func() Policy { return NewNVP(DefaultNVPConfig()) }},
		{"undolog", func() Policy { return NewUndoLog() }},
	}
	for _, b := range workloads.All() {
		p := b.ScaledParams()
		c, err := compiler.Compile(b.Build(p, 4, true), compiler.Options{Mode: b.Mode})
		if err != nil {
			t.Fatal(err)
		}
		in := b.Inputs(p, 1)
		for _, proc := range procs {
			t.Run(b.Name+"/"+proc.name, func(t *testing.T) {
				run := func(reference bool) (Result, []byte) {
					m := mem.New(mem.DefaultConfig())
					if err := m.LoadProgram(c.Program.Image); err != nil {
						t.Fatal(err)
					}
					if err := c.InstallData(m, in); err != nil {
						t.Fatal(err)
					}
					cp := cpu.New(m)
					cp.SetAmenablePCs(c.Program.Amenable)
					s := energy.NewSupply(energy.DefaultDeviceConfig(),
						energy.SyntheticWiFiTrace(42, energy.DefaultTraceConfig()))
					res, err := runToHalt(NewRunner(cp, m, s, proc.mk()), reference)
					if err != nil {
						t.Fatalf("reference=%v: %v", reference, err)
					}
					data := make([]byte, m.Config().DataBytes)
					if err := m.ReadData(mem.DataBase, data); err != nil {
						t.Fatal(err)
					}
					return res, data
				}
				refRes, refData := run(true)
				batRes, batData := run(false)
				if refRes != batRes {
					t.Errorf("results diverge:\nreference %+v\nbatched   %+v", refRes, batRes)
				}
				if refRes.Outages == 0 {
					t.Logf("note: trace produced no outages for %s/%s", b.Name, proc.name)
				}
				if !bytes.Equal(refData, batData) {
					t.Fatal("data memory diverges")
				}
			})
		}
	}
}
