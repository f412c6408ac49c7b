// Package core is the top-level façade of the What's Next reproduction: it
// assembles a simulated energy-harvesting device (CPU, memory, supply,
// forward-progress runtime) and runs compiled kernels on it, one input at a
// time, the way the paper's harness drives its benchmarks.
package core

import (
	"fmt"

	"whatsnext/internal/asm"
	"whatsnext/internal/compiler"
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
)

// Processor selects the forward-progress runtime.
type Processor int

const (
	// ProcClank is the checkpoint-based volatile processor (Section V-B).
	ProcClank Processor = iota
	// ProcNVP is the backup-every-cycle non-volatile processor (V-C).
	ProcNVP
	// ProcUndoLog is a volatile processor using undo-log rollback instead
	// of checkpoint-on-violation (an extension beyond the paper).
	ProcUndoLog
)

func (p Processor) String() string {
	switch p {
	case ProcNVP:
		return "nvp"
	case ProcUndoLog:
		return "undolog"
	default:
		return "clank"
	}
}

// Config assembles a device. Its memory geometry is not configured here:
// Load takes it from the compiled program.
type Config struct {
	Device      energy.DeviceConfig
	Processor   Processor
	Clank       intermittent.ClankConfig
	NVP         intermittent.NVPConfig
	UndoLog     intermittent.UndoLogConfig
	Memoization bool // enable the 16-entry memo table + zero skipping
}

// DefaultConfig returns the paper-default device: 24 MHz M0+-class core,
// 10 uF capacitor, Clank checkpointing, no memoization.
func DefaultConfig() Config {
	return Config{
		Device:  energy.DefaultDeviceConfig(),
		Clank:   intermittent.DefaultClankConfig(),
		NVP:     intermittent.DefaultNVPConfig(),
		UndoLog: intermittent.DefaultUndoLogConfig(),
	}
}

// Program is everything building a device reads: a program image, the
// instruction addresses the compiler marked amenable, the memory geometry
// the program runs in, and an optional input installer.
type Program struct {
	Image    []byte
	Amenable []uint32
	Mem      mem.Config
	// Install, when non-nil, writes the inputs into data memory after the
	// image is loaded.
	Install func(m *mem.Memory) error
}

// AssembledProgram is an assembled program at the default geometry: an
// assembled file carries no data layout to size memory by.
func AssembledProgram(p *asm.Program) Program {
	return Program{Image: p.Image, Amenable: p.Amenable, Mem: mem.DefaultConfig()}
}

// ProgramOf is a compiled kernel's program at the kernel's own geometry,
// installing inputs through Compiled.InstallData.
func ProgramOf(c *compiler.Compiled, inputs map[string][]int64) Program {
	return Program{
		Image:    c.Program.Image,
		Amenable: c.Program.Amenable,
		Mem:      c.Mem,
		Install:  func(m *mem.Memory) error { return c.InstallData(m, inputs) },
	}
}

// NewDevice builds memory at p's geometry holding its image and inputs,
// and a CPU at the boot state that carries p's amenable marks. Every
// simulated device is built here.
func NewDevice(p Program) (*mem.Memory, *cpu.CPU, error) {
	m := mem.New(p.Mem)
	if err := m.LoadProgram(p.Image); err != nil {
		return nil, nil, err
	}
	if p.Install != nil {
		if err := p.Install(m); err != nil {
			return nil, nil, err
		}
	}
	c := cpu.New(m)
	c.SetAmenablePCs(p.Amenable)
	return m, c, nil
}

// System is one simulated device with a loaded kernel. CPU, Mem and Runner
// are set by Load.
type System struct {
	Config Config
	CPU    *cpu.CPU
	Mem    *mem.Memory
	Supply *energy.Supply
	Runner *intermittent.Runner
	Policy intermittent.Policy

	compiled *compiler.Compiled
}

// NewSystem builds a device powered by the given harvest trace. Its memory
// and core are built by Load, at the loaded program's geometry.
func NewSystem(cfg Config, trace *energy.Trace) *System {
	var p intermittent.Policy
	switch cfg.Processor {
	case ProcNVP:
		p = intermittent.NewNVP(cfg.NVP)
	case ProcUndoLog:
		p = intermittent.NewUndoLog(cfg.UndoLog)
	default:
		p = intermittent.NewClank(cfg.Clank)
	}
	return &System{Config: cfg, Supply: energy.NewSupply(cfg.Device, trace), Policy: p}
}

// Load builds the device for a compiled kernel at the kernel's geometry,
// with its program image loaded, and attaches the policy to it.
func (s *System) Load(c *compiler.Compiled) error {
	m, cp, err := NewDevice(ProgramOf(c, nil))
	if err != nil {
		return err
	}
	if s.Config.Memoization {
		cp.Memo = cpu.NewMemoTable()
	}
	s.CPU, s.Mem, s.compiled = cp, m, c
	s.Runner = intermittent.NewRunner(cp, m, s.Supply, s.Policy)
	return nil
}

// RunInput processes one input sample end to end: data memory is cleared,
// inputs are installed in the kernel's layout, the core is reset, and the
// program runs to HALT (riding through outages, honoring skim points).
func (s *System) RunInput(inputs map[string][]int64) (intermittent.Result, error) {
	if s.compiled == nil {
		return intermittent.Result{}, fmt.Errorf("core: no kernel loaded")
	}
	s.Mem.ZeroData()
	if err := s.compiled.InstallData(s.Mem, inputs); err != nil {
		return intermittent.Result{}, err
	}
	s.CPU.Reset()
	s.CPU.DisarmSkim()
	if s.CPU.Memo != nil {
		s.CPU.Memo.Invalidate()
	}
	// Re-arm the policy for the new input (fresh checkpoint at entry).
	s.Policy.Attach(s.Runner)
	return s.Runner.RunToHalt()
}

// Output extracts the named output array in display-domain values.
func (s *System) Output(name string) ([]float64, error) {
	if s.compiled == nil {
		return nil, fmt.Errorf("core: no kernel loaded")
	}
	return s.compiled.Layout.OutputValues(s.Mem, name)
}

// ContinuousTrace returns a trace with ample constant power: the device
// never browns out, which is how the runtime-quality curves of Figure 9 are
// collected.
func ContinuousTrace() *energy.Trace {
	return energy.ConstantTrace(1.0, 1000, 3600)
}
