package energy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"whatsnext/internal/cpu"
)

// supplyState flattens every field of a Supply, exported or not, to bits:
// floats by math.Float64bits, so -0 and NaN payloads count as differences.
func supplyState(s *Supply) string {
	var out []byte
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				out = fmt.Appendf(out, "%s=", v.Type().Field(i).Name)
				walk(v.Field(i))
			}
		case reflect.Float64:
			out = fmt.Appendf(out, "%#x ", math.Float64bits(v.Float()))
		case reflect.Uint64, reflect.Uint32:
			out = fmt.Appendf(out, "%d ", v.Uint())
		case reflect.Bool:
			out = fmt.Appendf(out, "%t ", v.Bool())
		case reflect.Pointer:
			out = fmt.Appendf(out, "%#x ", v.Pointer())
		default:
			panic("supplyState: unhandled kind " + v.Kind().String())
		}
	}
	walk(reflect.ValueOf(s).Elem())
	return string(out)
}

// spendEach is the per-instruction reference SpendRun must reproduce: one
// Spend per cost, each carrying its per-cycle backup surcharge and the
// window's first and last overheads, as the intermittent package's
// per-instruction reference loop charges them.
func spendEach(s *Supply, costs []cpu.Cost, backup float64, first, last Overhead) (int, bool) {
	cfg := s.Config()
	for i, c := range costs {
		ec, ee := uint32(0), float64(c.Cycles)*backup*cfg.EnergyPerCycle
		if i == 0 {
			ec += first.Cycles
			ee += first.Energy
		}
		if i == len(costs)-1 {
			ec += last.Cycles
			ee += last.Energy
		}
		nvEnergy := float64(c.NVWrites) * cfg.NVWriteEnergy
		if !s.Spend(c.Cycles+ec, nvEnergy+ee) {
			return i + 1, false
		}
	}
	return len(costs), s.Powered()
}

// TestSpendRunMatchesSpend drives twin supplies through randomized cost
// runs, one with SpendRun and one with a Spend per cost, and requires
// every field to agree bit for bit after every run and every recharge.
// The traces cover harvest-sample boundaries inside a run, clamping at
// the capacitor ceiling, brown-outs mid-run and runs after WaitForPower.
func TestSpendRunMatchesSpend(t *testing.T) {
	short := DefaultTraceConfig()
	short.Seconds = 2
	traces := map[string]*Trace{
		"wifi":        SyntheticWiFiTrace(3, short),
		"wifi-strong": SyntheticWiFiTrace(4, TraceConfig{SampleHz: 1000, Seconds: 1, BasePower: 2e-3, BurstPower: 40e-3, BurstProb: 0.1, BurstLen: 9, Jitter: 0.45}),
		"clamping":    ConstantTrace(1, 1000, 1),
		"weak":        ConstantTrace(2e-3, 1000, 1),
		"odd-rate":    ConstantTrace(3e-3, 977, 0.5),
	}
	for name, tr := range traces {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			a := NewSupply(DefaultDeviceConfig(), tr)
			b := NewSupply(DefaultDeviceConfig(), tr)
			var boundaries, brownOuts, clamps int
			costs := make([]cpu.Cost, 0, 512)
			for run := 0; run < 3000; run++ {
				costs = costs[:0]
				for n := 1 + rng.Intn(400); n > 0; n-- {
					c := cpu.Cost{Cycles: uint32(1 + rng.Intn(16)), NVWrites: rng.Intn(3)}
					if rng.Intn(500) == 0 {
						c.Cycles = uint32(20_000 + rng.Intn(40_000)) // spans whole samples
					}
					costs = append(costs, c)
				}
				var backup float64
				if rng.Intn(2) == 0 {
					backup = 0.3
				}
				var first, last Overhead
				if rng.Intn(3) == 0 {
					first = Overhead{Cycles: 40, Energy: 17 * 500e-12}
				}
				if rng.Intn(3) == 0 {
					last = Overhead{Cycles: uint32(rng.Intn(64)), Energy: float64(rng.Intn(20)) * 500e-12}
				}
				if rng.Intn(50) == 0 {
					costs = costs[:1] // first and last coincide
				}
				hiBefore := a.sampleHi
				balance := a.energy - a.EnergyCharged + a.EnergyDrawn
				na, oka := a.SpendRun(costs, backup, first, last)
				nb, okb := spendEach(b, costs, backup, first, last)
				if na != nb || oka != okb {
					t.Fatalf("run %d: SpendRun = (%d, %v), Spend per cost = (%d, %v)", run, na, oka, nb, okb)
				}
				if sa, sb := supplyState(a), supplyState(b); sa != sb {
					t.Fatalf("run %d: supplies diverge\nSpendRun %s\nSpend    %s", run, sa, sb)
				}
				if a.sampleHi != hiBefore {
					boundaries++
				}
				// Harvest the capacitor could not hold leaves the balance.
				if balance-(a.energy-a.EnergyCharged+a.EnergyDrawn) > 1e-12 {
					clamps++
				}
				if !oka {
					brownOuts++
					wa, okA := a.WaitForPower()
					wb, okB := b.WaitForPower()
					if wa != wb || okA != okB || supplyState(a) != supplyState(b) {
						t.Fatalf("run %d: recharge diverges", run)
					}
					if !okA {
						t.Fatalf("run %d: trace cannot recharge", run)
					}
				}
			}
			if boundaries == 0 {
				t.Error("no run crossed a harvest-sample boundary")
			}
			if name == "clamping" && clamps == 0 {
				t.Error("the strong trace never clamped at the capacitor ceiling")
			}
			if name == "weak" && brownOuts == 0 {
				t.Error("the weak trace never browned out")
			}
		})
	}
}

// TestSpendRunUnpowered: like Spend, SpendRun does nothing while off.
func TestSpendRunUnpowered(t *testing.T) {
	s := NewSupply(DefaultDeviceConfig(), ConstantTrace(1e-3, 1000, 1))
	s.ForceOutage()
	before := supplyState(s)
	if n, ok := s.SpendRun([]cpu.Cost{{Cycles: 1}}, 0, Overhead{}, Overhead{}); n != 0 || ok {
		t.Fatalf("SpendRun while off = (%d, %v), want (0, false)", n, ok)
	}
	if supplyState(s) != before {
		t.Fatal("SpendRun while off changed the supply")
	}
}

// TestHarvestSampleCache checks the cached harvest sample against the
// uncached Power[uint64(Now()*SampleHz)%len]*HarvestEff at every cycle
// count within ±2 of many sample boundaries, and that the cache ends
// exactly where the sample index changes.
func TestHarvestSampleCache(t *testing.T) {
	odd := SyntheticWiFiTrace(9, DefaultTraceConfig())
	odd.SampleHz = 1 / 0.0007 // an inexact rate, as ReadCSV infers one
	cases := []struct {
		name    string
		clockHz float64
		trace   *Trace
	}{
		{"paper", 24e6, SyntheticWiFiTrace(5, DefaultTraceConfig())},
		{"inexact-rate", 24e6, odd},
		{"odd-clock", 16e6 + 7, ConstantTrace(1e-3, 977, 3)},
		{"sub-cycle-samples", 1000, ConstantTrace(1e-3, 3000, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultDeviceConfig()
			cfg.ClockHz = tc.clockHz
			s := NewSupply(cfg, tc.trace)
			uncached := func(cycles uint64) (uint64, float64) {
				s.CyclesOn = cycles
				idx := uint64(s.Now() * tc.trace.SampleHz)
				return idx, tc.trace.Power[idx%uint64(len(tc.trace.Power))] * cfg.HarvestEff
			}
			period := tc.clockHz / tc.trace.SampleHz
			var next uint64 // cycle counts below next were already checked
			for k := 1; k <= 5000; k++ {
				b := uint64(math.Ceil(float64(k) * period))
				for c := max(next, b-min(b, 2)); c <= b+2; c++ {
					idx, want := uncached(c)
					if got := s.harvestAt(c); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("cycle %d: cached sample %v, uncached %v", c, got, want)
					}
					if hi := s.sampleHi; hi <= c {
						t.Fatalf("cycle %d: cache ends at %d, before the lookup", c, hi)
					} else if hiIdx, _ := uncached(hi); hiIdx == idx {
						t.Fatalf("cycle %d: cache ends at %d, but the sample changes later", c, hi)
					} else if lastIdx, _ := uncached(hi - 1); lastIdx != idx {
						t.Fatalf("cycle %d: cache ends at %d, after the sample changed", c, hi)
					}
					next = c + 1
				}
			}
		})
	}
}

// TestWaitForPowerWithoutTrace: a supply with no harvest samples at all
// browns out like any other and then reports that it cannot recharge,
// instead of panicking on the nil trace or spinning forever.
func TestWaitForPowerWithoutTrace(t *testing.T) {
	for name, tr := range map[string]*Trace{"nil": nil, "empty": {SampleHz: 1000}} {
		t.Run(name, func(t *testing.T) {
			s := NewSupply(DefaultDeviceConfig(), tr)
			for s.Spend(64, 0) {
			}
			if waited, ok := s.WaitForPower(); ok || waited != 0 {
				t.Fatalf("WaitForPower = (%d, %v), want (0, false)", waited, ok)
			}
			if s.Powered() || s.EnergyCharged != 0 {
				t.Fatal("nothing can charge without a trace")
			}
		})
	}
}
