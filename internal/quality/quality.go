// Package quality implements the output-quality metrics of the paper's
// evaluation — chiefly NRMSE, the normalized root-mean-square error used for
// every runtime-quality curve — together with companion metrics and PGM
// image output for the visual figures.
package quality

import (
	"fmt"
	"io"
	"math"
)

// RMSE returns the root-mean-square error between got and want.
// It panics if the lengths differ (a harness bug, not a data condition).
func RMSE(got, want []float64) float64 {
	if len(got) != len(want) {
		panic(fmt.Sprintf("quality: length mismatch %d vs %d", len(got), len(want)))
	}
	if len(want) == 0 {
		return 0
	}
	var sum float64
	for i := range want {
		d := got[i] - want[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(want)))
}

// NRMSE returns the normalized root-mean-square error in percent — the
// metric the paper reports on every quality axis — normalizing by the peak
// magnitude of the reference output. (Peak normalization keeps the metric
// meaningful for outputs whose values cluster far from zero, such as
// averaged sensor conditions; see also NRMSERange.)
func NRMSE(got, want []float64) float64 {
	r := RMSE(got, want)
	if r == 0 {
		return 0
	}
	var peak float64
	for _, v := range want {
		peak = math.Max(peak, math.Abs(v))
	}
	if peak == 0 {
		peak = 1
	}
	return 100 * r / peak
}

// Median returns the median of xs (the paper reports medians over the
// 3-invocation x 9-trace protocol). It copies and partially sorts.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), xs...)
	// Insertion sort: inputs are tiny (27 runs).
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs (used for average speedups).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// WritePGM emits an 8-bit binary PGM (P5) image: the visual Conv2d outputs
// of Figures 2 and 16. Values are clamped to [0,255].
func WritePGM(w io.Writer, pixels []float64, width, height int) error {
	if len(pixels) != width*height {
		return fmt.Errorf("quality: %d pixels for %dx%d image", len(pixels), width, height)
	}
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", width, height); err != nil {
		return err
	}
	buf := make([]byte, len(pixels))
	for i, p := range pixels {
		v := math.Round(p)
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		buf[i] = byte(v)
	}
	_, err := w.Write(buf)
	return err
}
