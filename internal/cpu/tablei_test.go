package cpu_test

import (
	"reflect"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/cpu"
	"whatsnext/internal/mem"
	"whatsnext/internal/workloads"
)

// TestBatchedContinuousMatchesReference runs every Table I kernel's precise
// build to halt three times — through the reference interpreter, through
// RunUntil and through Run — and requires identical final data memory, CPU
// statistics, and cycle counts.
func TestBatchedContinuousMatchesReference(t *testing.T) {
	engines := []struct {
		name string
		run  func(*cpu.CPU) (uint64, error)
	}{
		{"reference", func(c *cpu.CPU) (uint64, error) {
			cost, err := c.ReferenceStep()
			return uint64(cost.Cycles), err
		}},
		{"RunUntil", func(c *cpu.CPU) (uint64, error) {
			res, err := c.RunUntil(1<<62, nil)
			return res.Cycles, err
		}},
		{"Run", func(c *cpu.CPU) (uint64, error) {
			res, err := c.Run(1<<62, nil)
			return res.Cycles, err
		}},
	}
	for _, b := range workloads.All() {
		t.Run(b.Name, func(t *testing.T) {
			p := b.ScaledParams()
			c, err := compiler.Compile(b.Build(p, 8, false), compiler.Options{Mode: compiler.ModePrecise})
			if err != nil {
				t.Fatal(err)
			}
			in := b.Inputs(p, 1)

			var (
				refCPU    *cpu.CPU
				refMem    *mem.Memory
				refCycles uint64
				refData   []byte
			)
			for _, e := range engines {
				m := mem.New(mem.DefaultConfig())
				if err := m.LoadProgram(c.Program.Image); err != nil {
					t.Fatal(err)
				}
				if err := c.InstallData(m, in); err != nil {
					t.Fatal(err)
				}
				cp := cpu.New(m)
				cp.SetAmenablePCs(c.Program.Amenable)
				var cycles uint64
				for !cp.Halted {
					n, err := e.run(cp)
					if err != nil {
						t.Fatalf("%s fault: %v", e.name, err)
					}
					cycles += n
				}
				data := make([]byte, m.Config().DataBytes)
				if err := m.ReadData(mem.DataBase, data); err != nil {
					t.Fatal(err)
				}
				if refCPU == nil {
					refCPU, refMem, refCycles, refData = cp, m, cycles, data
					continue
				}
				if refCycles != cycles {
					t.Errorf("%s: cycles diverge: reference %d, got %d", e.name, refCycles, cycles)
				}
				if !reflect.DeepEqual(refCPU.Stats, cp.Stats) {
					t.Errorf("%s: stats diverge:\nreference %+v\ngot       %+v", e.name, refCPU.Stats, cp.Stats)
				}
				if refMem.NVWrites != m.NVWrites {
					t.Errorf("%s: NV writes diverge: reference %d, got %d", e.name, refMem.NVWrites, m.NVWrites)
				}
				for i := range refData {
					if refData[i] != data[i] {
						t.Fatalf("%s: data memory diverges at %#08x: reference %#02x, got %#02x",
							e.name, mem.DataBase+uint32(i), refData[i], data[i])
					}
				}
			}
		})
	}
}

// TestRunFusesCostedMultiplyLoop: with per-instruction costs wanted and no
// memo table, as in every intermittent window of the paper's default
// configuration, Run retires at least 90 % of the Conv2d swp8 build's
// instructions through fused superblocks: a multiply no longer keeps a
// block to single slots.
func TestRunFusesCostedMultiplyLoop(t *testing.T) {
	b := workloads.Conv2d()
	p := b.ScaledParams()
	c, err := compiler.Compile(b.Build(p, 8, true), compiler.Options{Mode: b.Mode})
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(c.Program.Image); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallData(m, b.Inputs(p, 1)); err != nil {
		t.Fatal(err)
	}
	cp := cpu.New(m)
	single, err := cp.CountSlotRuns()
	if err != nil {
		t.Fatal(err)
	}
	var costs []cpu.Cost
	for !cp.Halted {
		costs = costs[:0]
		res, err := cp.Run(2000, &costs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason == cpu.StopHalt || res.Reason == cpu.StopSkim {
			*single++ // the HALT or SKM Run stopped after ran as one slot
		}
	}
	total := cp.Stats.Instructions
	fused := total - *single
	t.Logf("%d of %d instructions fused (%.1f %%)", fused, total, 100*float64(fused)/float64(total))
	if fused*10 < total*9 {
		t.Errorf("only %d of %d instructions ran fused, want at least 90 %%", fused, total)
	}
}
