package energy

import (
	"math"

	"whatsnext/internal/cpu"
)

// DeviceConfig describes the electrical parameters of the simulated device.
type DeviceConfig struct {
	ClockHz        float64 // processor clock; the paper runs the M0+ at 24 MHz
	CapacitanceF   float64 // storage capacitor; 10 uF in the paper
	VMax           float64 // capacitor ceiling (harvester clamp)
	VOn            float64 // turn-on threshold (hysteresis upper bound)
	VOff           float64 // brown-out threshold
	EnergyPerCycle float64 // joules per processor cycle (constant, per paper)
	NVWriteEnergy  float64 // extra joules per non-volatile data write
	HarvestEff     float64 // harvester conversion efficiency in (0,1]
}

// DefaultDeviceConfig returns the parameters used throughout the
// reproduction: 24 MHz clock, 10 uF capacitor with a 1.8-3.0 V operating
// window and 2 nJ/cycle (MSP430/M0+-class energy at 3 V including the NV
// memory system), which yields roughly 19k cycles (about 0.8 ms) per full
// charge — the paper's millisecond-scale active periods.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		ClockHz:        24e6,
		CapacitanceF:   10e-6,
		VMax:           3.3,
		VOn:            3.0,
		VOff:           1.8,
		EnergyPerCycle: 2e-9,
		NVWriteEnergy:  500e-12,
		HarvestEff:     0.7,
	}
}

// UsableEnergy returns the joules available between VOn and VOff.
func (c DeviceConfig) UsableEnergy() float64 {
	return 0.5 * c.CapacitanceF * (c.VOn*c.VOn - c.VOff*c.VOff)
}

// CyclesPerCharge estimates how many cycles a full charge sustains with no
// concurrent harvesting.
func (c DeviceConfig) CyclesPerCharge() uint64 {
	return uint64(c.UsableEnergy() / c.EnergyPerCycle)
}

// Supply combines a harvest trace with a capacitor and exposes the
// charge/discharge process at cycle granularity to the intermittent
// runtimes.
type Supply struct {
	cfg   DeviceConfig
	trace *Trace

	energy   float64 // joules currently stored
	maxE     float64
	onE      float64 // stored energy at VOn
	offE     float64 // stored energy at VOff
	powered  bool
	cycleSec float64 // seconds per cycle

	// Totals.
	CyclesOn      uint64 // cycles executed while powered
	CyclesOff     uint64 // cycles spent waiting for charge
	Outages       uint64 // number of brown-outs observed
	EnergyDrawn   float64
	EnergyCharged float64

	// Harvest-sample cache (see harvestAt): hp is the harvested power for
	// every total-cycle count from the last lookup up to sampleHi.
	hp       float64
	sampleHi uint64
}

// NewSupply builds a supply from a device config and a harvest trace. The
// capacitor starts full so the first active period begins at cycle zero.
func NewSupply(cfg DeviceConfig, trace *Trace) *Supply {
	s := &Supply{
		cfg:      cfg,
		trace:    trace,
		maxE:     0.5 * cfg.CapacitanceF * cfg.VMax * cfg.VMax,
		onE:      0.5 * cfg.CapacitanceF * cfg.VOn * cfg.VOn,
		offE:     0.5 * cfg.CapacitanceF * cfg.VOff * cfg.VOff,
		cycleSec: 1 / cfg.ClockHz,
	}
	s.energy = s.onE
	s.powered = true
	return s
}

// Config returns the device parameters.
func (s *Supply) Config() DeviceConfig { return s.cfg }

// Headroom returns the joules stored above the brown-out threshold. Batch
// schedulers divide it by a worst-case per-cycle drain to bound how many
// cycles can run without a brown-out.
func (s *Supply) Headroom() float64 { return s.energy - s.offE }

// TotalCycles returns elapsed wall-clock time in cycle units (on + off).
func (s *Supply) TotalCycles() uint64 { return s.CyclesOn + s.CyclesOff }

// harvestAt returns the harvested power at total-cycle count t: the trace
// sample uint64(t*cycleSec*SampleHz), wrapping the trace, times HarvestEff. A
// sample spans ClockHz/SampleHz cycles (24 000 at the defaults), so the
// supply caches it until the cycle count at which the sample changes, and
// a lookup inside a sample is a single compare. Only the Supply's own
// methods advance the cycle counters, and never backwards, so the cache
// needs no start.
func (s *Supply) harvestAt(t uint64) float64 {
	if t >= s.sampleHi {
		s.loadSample(t)
	}
	return s.hp
}

// loadSample fills the harvest-sample cache for total-cycle count t.
func (s *Supply) loadSample(t uint64) {
	if s.trace == nil || len(s.trace.Power) == 0 {
		s.hp, s.sampleHi = 0, math.MaxUint64
		return
	}
	idx := s.sampleIndex(t)
	s.hp = s.trace.Power[idx%uint64(len(s.trace.Power))] * s.cfg.HarvestEff
	s.sampleHi = s.nextSample(t, idx)
}

// sampleIndex is the unwrapped trace sample in effect at total-cycle count
// t: the simulated time t*cycleSec in seconds, times SampleHz, truncated.
func (s *Supply) sampleIndex(t uint64) uint64 {
	return uint64(float64(t) * s.cycleSec * s.trace.SampleHz)
}

// nextSample returns the first cycle count after t whose sample index is
// not idx, where idx = sampleIndex(t). sampleIndex is monotone in t: the
// integer-to-float conversion, the multiplications by positive constants
// and the truncation each preserve order. So a short walk from the
// real-valued estimate finds the boundary exactly. Where no estimate is
// usable (a degenerate clock or sample rate) it returns t+1, which caches
// nothing and stays exact.
func (s *Supply) nextSample(t, idx uint64) uint64 {
	est := float64(idx+1) / s.trace.SampleHz / s.cycleSec
	if !(est >= 0 && est < 1<<62) {
		return t + 1
	}
	b := max(uint64(est), t+1)
	for range 64 {
		switch {
		case s.sampleIndex(b) == idx:
			b++
		case b-1 > t && s.sampleIndex(b-1) != idx:
			b--
		default:
			return b
		}
	}
	return t + 1
}

// Overhead is runtime work charged on top of one instruction's own cost,
// such as a checkpoint or a restore.
type Overhead struct {
	Cycles uint32
	Energy float64
}

// meter is the part of a Supply that one Spend updates. Spend and SpendRun
// both advance it through spend, so a run spent by SpendRun evaluates the
// very same float expressions, in the same order, as one Spend per cost.
type meter struct {
	energy, drawn, charged float64
	cyclesOn               uint64
}

func (s *Supply) meter() meter {
	return meter{s.energy, s.EnergyDrawn, s.EnergyCharged, s.CyclesOn}
}

func (s *Supply) setMeter(m meter) {
	s.energy, s.EnergyDrawn, s.EnergyCharged, s.CyclesOn = m.energy, m.drawn, m.charged, m.cyclesOn
}

// spend runs cycles of execution at harvest power hp, drawing
// cycles*EnergyPerCycle+extra joules. Plain compares stand in for math.Min:
// stored energy is never NaN or -0, so they select the same value.
func (s *Supply) spend(m meter, hp float64, cycles uint32, extra float64) meter {
	in := hp * float64(cycles) * s.cycleSec
	m.charged += in
	if m.energy += in; m.energy > s.maxE {
		m.energy = s.maxE
	}
	draw := float64(cycles)*s.cfg.EnergyPerCycle + extra
	m.drawn += draw
	m.energy -= draw
	m.cyclesOn += uint64(cycles)
	return m
}

// brownOut powers the device down after a Spend crossed VOff.
func (s *Supply) brownOut() {
	if s.energy < 0 {
		s.energy = 0
	}
	s.powered = false
	s.Outages++
}

// charge adds harvested energy for n cycles of elapsed time.
func (s *Supply) charge(n uint64) {
	in := s.harvestAt(s.TotalCycles()) * float64(n) * s.cycleSec
	s.EnergyCharged += in
	if s.energy += in; s.energy > s.maxE {
		s.energy = s.maxE
	}
}

// Spend advances simulated time by cycles of execution, drawing
// cycles*EnergyPerCycle+extra joules while also harvesting. It returns false
// when the capacitor crosses VOff: the device browns out and the caller must
// WaitForPower before executing again.
func (s *Supply) Spend(cycles uint32, extra float64) bool {
	if !s.powered {
		return false
	}
	m := s.spend(s.meter(), s.harvestAt(s.TotalCycles()), cycles, extra)
	s.setMeter(m)
	if m.energy <= s.offE {
		s.brownOut()
		return false
	}
	return true
}

// SpendRun spends a run of instruction costs in order, stopping at the
// first brown-out. Each cost c is charged exactly as
//
//	Spend(c.Cycles+ov.Cycles, float64(c.NVWrites)*NVWriteEnergy+(float64(c.Cycles)*backup*EnergyPerCycle+ov.Energy))
//
// would charge it, where ov is first on costs[0], last on the final cost
// (first, then last, when they coincide) and zero elsewhere. backup is a
// per-cycle surcharge factor. SpendRun returns how many costs it spent and
// whether the device is still powered; a brown-out always falls on
// costs[n-1]. The state Spend would keep in fields lives in locals for the
// run, and the harvest sample is re-read only when a run crosses a sample
// boundary.
func (s *Supply) SpendRun(costs []cpu.Cost, backup float64, first, last Overhead) (n int, ok bool) {
	if !s.powered {
		return 0, false
	}
	var (
		m    = s.meter()
		epc  = s.cfg.EnergyPerCycle
		nvwE = s.cfg.NVWriteEnergy
		t    = m.cyclesOn + s.CyclesOff
		hp   = s.harvestAt(t)
		hi   = s.sampleHi
		end  = len(costs) - 1
	)
	for i, c := range costs {
		if t >= hi {
			hp, hi = s.harvestAt(t), s.sampleHi
		}
		cycles, ee := c.Cycles, float64(c.Cycles)*backup*epc
		if i == 0 {
			cycles += first.Cycles
			ee += first.Energy
		}
		if i == end {
			cycles += last.Cycles
			ee += last.Energy
		}
		m = s.spend(m, hp, cycles, float64(c.NVWrites)*nvwE+ee)
		t += uint64(cycles)
		if m.energy <= s.offE {
			s.setMeter(m)
			s.brownOut()
			return i + 1, false
		}
	}
	s.setMeter(m)
	return len(costs), true
}

// WaitForPower advances simulated time until the capacitor recharges to VOn,
// returning the number of cycles spent off. With a zero-power trace it gives
// up after the equivalent of ten trace durations and returns false; with no
// trace samples at all nothing can ever charge, so it returns false at once.
func (s *Supply) WaitForPower() (waited uint64, ok bool) {
	if s.powered {
		return 0, true
	}
	if s.trace == nil || len(s.trace.Power) == 0 {
		return 0, false
	}
	// Step at one trace-sample granularity for fidelity to the 1 kHz trace.
	step := uint64(s.cfg.ClockHz / s.trace.SampleHz)
	if step == 0 {
		step = 1
	}
	limit := uint64(10*s.trace.Duration()*s.cfg.ClockHz) + s.TotalCycles()
	for s.energy < s.onE {
		s.charge(step)
		s.CyclesOff += step
		waited += step
		if s.TotalCycles() > limit {
			return waited, false
		}
	}
	s.powered = true
	return waited, true
}

// ForceOutage models an externally induced brown-out (used in failure
// injection tests): the capacitor is drained to VOff.
func (s *Supply) ForceOutage() {
	if !s.powered {
		return
	}
	s.energy = s.offE
	s.powered = false
	s.Outages++
}
