package experiments

import (
	"fmt"
	"io"

	"whatsnext/internal/compiler"
	"whatsnext/internal/quality"
	"whatsnext/internal/workloads"
)

// Fig3Reading is one point of the glucose monitoring comparison.
type Fig3Reading struct {
	MinuteOfDay int
	Clinical    float64 // ground-truth glucose level
	Sampled     float64 // precise device, NaN-like -1 when the sample was dropped
	Anytime     float64 // WN device, 4-bit first pass, every sample
}

// Fig3Result summarizes the Section II glucose case study.
type Fig3Result struct {
	Readings []Fig3Reading

	PreciseCost uint64 // cycles for one precise reading
	AnytimeCost uint64 // cycles for one 4-bit first-pass reading

	SampledProcessed int
	SampledMissedDip bool // sampling missed at least one hypoglycemic dip
	AnytimeCaughtAll bool // anytime flagged both dips
	AnytimeAvgErrPct float64
}

// dangerLine is the hypoglycemia detection threshold in mg/dL.
const dangerLine = 55.0

// Figure3 reproduces the blood-glucose motivation study: readings arrive
// every 15 minutes; harvested energy per interval covers one anytime
// first-pass but only half of a precise filter evaluation. The precise
// device therefore drops every other reading (input sampling), while the
// WN device produces an approximate reading for all of them.
func Figure3(seed int64) (Fig3Result, error) {
	weights := workloads.GlucoseWeights()
	trace := workloads.ClinicalGlucoseTrace(seed)

	precise, err := compiler.Compile(workloads.GlucoseKernel(4), compiler.Options{Mode: compiler.ModePrecise})
	if err != nil {
		return Fig3Result{}, err
	}
	anytime, err := compiler.Compile(workloads.GlucoseKernel(4), compiler.Options{Mode: compiler.ModeSWP, VectorLoads: true})
	if err != nil {
		return Fig3Result{}, err
	}

	// Measure the per-reading costs once.
	raw0 := workloads.GlucoseRawWindow(trace[0], seed)
	in0 := map[string][]int64{"RAW": raw0, "W": weights}
	pres, _, err := runContinuous(precise, in0, contOptions{})
	if err != nil {
		return Fig3Result{}, err
	}
	ares, _, err := runContinuous(anytime, in0, contOptions{stopAtSkim: true})
	if err != nil {
		return Fig3Result{}, err
	}
	res := Fig3Result{PreciseCost: pres.Cycles, AnytimeCost: ares.Cycles}

	// The harvested energy budget per 15-minute interval: enough for one
	// anytime first pass (with a small margin), but well short of a precise
	// evaluation, which therefore takes several intervals of accumulation.
	budgetPerInterval := ares.Cycles + ares.Cycles/50

	var sampledBudget uint64
	var relErrs []float64
	dipsTruth := map[int]bool{}
	dipsSampled := map[int]bool{}
	dipsAnytime := map[int]bool{}

	var got []float64 // every reading's output decodes into one buffer
	for i, r := range trace {
		raw := workloads.GlucoseRawWindow(r, seed+int64(i))
		in := map[string][]int64{"RAW": raw, "W": weights}
		golden := workloads.GlucoseGolden(raw, weights)
		if r.MgPerDL < dangerLine {
			dipsTruth[i] = true
		}

		reading := Fig3Reading{MinuteOfDay: r.MinuteOfDay, Clinical: r.MgPerDL, Sampled: -1}

		// Input sampling: accumulate budget; process when a precise
		// evaluation is affordable, dropping the readings in between.
		sampledBudget += budgetPerInterval
		if sampledBudget >= pres.Cycles {
			sampledBudget -= pres.Cycles
			reading.Sampled = golden
			res.SampledProcessed++
			if golden < dangerLine {
				dipsSampled[i] = true
			}
		}

		// Anytime processing: every reading gets a first-pass result.
		_, m, err := runContinuous(anytime, in, contOptions{stopAtSkim: true})
		if err != nil {
			return Fig3Result{}, err
		}
		got, err = anytime.Layout.AppendOutputValues(got[:0], m, "OUT")
		if err != nil {
			return Fig3Result{}, err
		}
		reading.Anytime = got[0]
		if golden > 0 {
			relErrs = append(relErrs, 100*abs(got[0]-golden)/golden)
		}
		if got[0] < dangerLine {
			dipsAnytime[i] = true
		}
		res.Readings = append(res.Readings, reading)
	}

	res.AnytimeAvgErrPct = quality.Mean(relErrs)
	res.AnytimeCaughtAll = true
	for i := range dipsTruth {
		if !dipsAnytime[i] {
			res.AnytimeCaughtAll = false
		}
		if !dipsSampled[i] {
			res.SampledMissedDip = true
		}
	}
	return res, nil
}

// PrintFigure3 renders the comparison series and summary.
func PrintFigure3(w io.Writer, r Fig3Result) {
	fmt.Fprintf(w, "Figure 3: glucose monitoring — input sampling vs anytime processing\n")
	fmt.Fprintf(w, "precise reading cost: %d cycles; anytime first pass: %d cycles\n", r.PreciseCost, r.AnytimeCost)
	fmt.Fprintf(w, "time,clinical,sampled,anytime\n")
	for _, p := range r.Readings {
		sampled := ""
		if p.Sampled >= 0 {
			sampled = fmt.Sprintf("%.0f", p.Sampled)
		}
		fmt.Fprintf(w, "%02d:%02d,%.0f,%s,%.0f\n", p.MinuteOfDay/60, p.MinuteOfDay%60, p.Clinical, sampled, p.Anytime)
	}
	fmt.Fprintf(w, "sampling processed %d/%d readings, missed a dip: %v\n",
		r.SampledProcessed, len(r.Readings), r.SampledMissedDip)
	fmt.Fprintf(w, "anytime processed %d/%d readings, caught all dips: %v, avg error %.2f%%\n",
		len(r.Readings), len(r.Readings), r.AnytimeCaughtAll, r.AnytimeAvgErrPct)
}
