// Package energy models the power environment of an energy-harvesting
// device: a harvested-power trace sampled at 1 kHz (the paper feeds its
// simulator Wi-Fi harvest traces at that rate), a small storage capacitor
// (10 uF in the paper), and a supply that turns the processor on and off
// with voltage hysteresis as the capacitor charges and discharges.
//
// The processor draws a constant energy per cycle — the paper validates this
// constant-energy-per-instruction assumption on MSP430 hardware — plus
// explicit surcharges for non-volatile writes and checkpoints.
package energy

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
)

// Trace is a harvested-power trace: Power[i] is the instantaneous harvested
// power (watts) during sample i, at SampleHz samples per second. The supply
// wraps around when the trace is exhausted, so any finite trace models a
// stationary environment.
type Trace struct {
	SampleHz float64
	Power    []float64
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 {
	if t.SampleHz == 0 {
		return 0
	}
	return float64(len(t.Power)) / t.SampleHz
}

// MeanPower returns the average harvested power over the trace, in watts.
func (t *Trace) MeanPower() float64 {
	if len(t.Power) == 0 {
		return 0
	}
	var sum float64
	for _, p := range t.Power {
		sum += p
	}
	return sum / float64(len(t.Power))
}

// TraceConfig parameterizes the synthetic RF-harvest trace generator.
type TraceConfig struct {
	SampleHz   float64 // sample rate; the paper uses 1 kHz traces
	Seconds    float64 // trace duration
	BasePower  float64 // ambient harvested power, watts
	BurstPower float64 // mean additional power during an RF burst, watts
	BurstProb  float64 // per-sample probability that a burst begins
	BurstLen   float64 // mean burst length in samples (geometric)
	Jitter     float64 // multiplicative amplitude jitter in [0,1)
}

// DefaultTraceConfig returns burst statistics that produce millisecond-scale
// active periods on the default device (10 uF capacitor, 300 pJ/cycle at
// 24 MHz), matching the paper's "up to a few milliseconds at a time"
// characterization of harvested supplies.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		SampleHz:   1000,
		Seconds:    40,
		BasePower:  120e-6,
		BurstPower: 2.4e-3,
		BurstProb:  0.06,
		BurstLen:   9,
		Jitter:     0.45,
	}
}

// SyntheticWiFiTrace generates a deterministic, seeded RF-burst harvest
// trace. It substitutes for the captured Wi-Fi traces of Furlong et al. used
// by the paper: bursty packet-scale energy arrivals over a weak ambient
// floor. Distinct seeds play the role of the paper's 9 distinct traces.
func SyntheticWiFiTrace(seed int64, cfg TraceConfig) *Trace {
	rng := rand.New(rand.NewSource(seed))
	n := int(cfg.SampleHz * cfg.Seconds)
	power := make([]float64, n)
	burstLeft := 0
	burstAmp := 0.0
	for i := range power {
		if burstLeft == 0 && rng.Float64() < cfg.BurstProb {
			// Geometric burst length with the configured mean.
			burstLeft = 1 + int(rng.ExpFloat64()*cfg.BurstLen)
			burstAmp = cfg.BurstPower * (1 + cfg.Jitter*(2*rng.Float64()-1))
		}
		p := cfg.BasePower * (1 + cfg.Jitter*(2*rng.Float64()-1))
		if burstLeft > 0 {
			p += burstAmp * (1 + 0.2*(2*rng.Float64()-1))
			burstLeft--
		}
		power[i] = math.Max(0, p)
	}
	return &Trace{SampleHz: cfg.SampleHz, Power: power}
}

// ConstantTrace returns a trace with fixed harvested power. Useful for
// continuous-power experiments (the runtime-quality curves of Figure 9) and
// for tests.
func ConstantTrace(watts, sampleHz, seconds float64) *Trace {
	n := int(sampleHz * seconds)
	power := make([]float64, n)
	for i := range power {
		power[i] = watts
	}
	return &Trace{SampleHz: sampleHz, Power: power}
}

// WriteCSV writes the trace as "time_s,power_w" rows.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "power_w"}); err != nil {
		return err
	}
	for i, p := range t.Power {
		row := []string{
			strconv.FormatFloat(float64(i)/t.SampleHz, 'g', -1, 64),
			strconv.FormatFloat(p, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV. The sample rate is inferred
// from the first two timestamps, and every later timestamp must sit on that
// grid: within half a sample period of t0 + (row-2)/SampleHz, so a skipped,
// repeated or garbled sample cannot be read at the wrong rate. Timestamps
// must be finite and power finite and non-negative: a NaN sample would keep
// the capacitor from ever crossing V_off, so the device would silently never
// brown out. Errors name the offending row, counting the header as row 1.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 3 {
		return nil, fmt.Errorf("energy: trace CSV needs a header and at least two samples")
	}
	rows = rows[1:] // drop header
	var ts [2]float64
	for i := range ts {
		if ts[i], err = parseTimestamp(rows[i][0], i+2); err != nil {
			return nil, err
		}
	}
	if ts[1] <= ts[0] {
		return nil, fmt.Errorf("energy: non-increasing timestamps in trace")
	}
	if math.IsInf(ts[1]-ts[0], 0) {
		return nil, fmt.Errorf("energy: rows 2-3: sample period between %v and %v overflows", ts[0], ts[1])
	}
	hz := 1 / (ts[1] - ts[0])
	if math.IsInf(hz, 0) {
		return nil, fmt.Errorf("energy: rows 2-3: sample period %v is too short", ts[1]-ts[0])
	}
	tr := &Trace{SampleHz: hz}
	for i, row := range rows {
		if len(row) < 2 {
			return nil, fmt.Errorf("energy: row %d is short", i+2)
		}
		if i >= len(ts) {
			t, err := parseTimestamp(row[0], i+2)
			if err != nil {
				return nil, err
			}
			want := ts[0] + float64(i)/hz
			if !(math.Abs(t-want) <= 0.5/hz) {
				return nil, fmt.Errorf("energy: row %d: timestamp %v is off the %v Hz sample grid (want %v)", i+2, t, hz, want)
			}
		}
		p, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("energy: row %d: bad power %q: %v", i+2, row[1], err)
		}
		if !(p >= 0) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("energy: row %d: power %v is not a finite non-negative wattage", i+2, p)
		}
		tr.Power = append(tr.Power, p)
	}
	return tr, nil
}

// parseTimestamp parses the time_s field of CSV row n (header = row 1),
// rejecting non-numeric and non-finite values.
func parseTimestamp(field string, n int) (float64, error) {
	t, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, fmt.Errorf("energy: row %d: bad timestamp %q: %v", n, field, err)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, fmt.Errorf("energy: row %d: timestamp %v is not finite", n, t)
	}
	return t, nil
}
